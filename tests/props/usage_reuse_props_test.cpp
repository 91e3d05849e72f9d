// The composite checker builds less than it used to, and must answer
// exactly as before:
//
//   * realizability -- the realizable usage is the usage NFA over the
//     exits the bodies reach.  On random composites with dead returns,
//     undecodable returns, bodies that fall off their end and redefined
//     operations, and on farm-N with one dead exit, it has the language of
//     the op-label projection of the whole system NFA, and
//     unrealizable_usage returns that projection's witness;
//
//   * one usage DFA per subsystem class -- later fields of a class read a
//     renamed copy of the first field's DFA.  On composites whose fields
//     first mention their operations in different orders (so their
//     symbols sort differently), every witness and diagnosis equals a
//     per-field rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "fsm/ops.hpp"
#include "paper_sources.hpp"
#include "props/projected_realizability.hpp"
#include "shelley/checker.hpp"
#include "support/strings.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

std::string render(const std::optional<Word>& word, const SymbolTable& table) {
  return word ? "[" + to_string(*word, table) + "]" : "none";
}

/// The Valve spec plus every class of `source`, parsed into `specs`.
void load(const std::string& source, std::deque<ClassSpec>& specs,
          DiagnosticEngine& diagnostics) {
  const upy::Module valve = upy::parse_module(examples::kValveSource);
  specs.push_back(extract_class_spec(valve.classes.at(0), diagnostics));
  const upy::Module module = upy::parse_module(source);
  for (const upy::ClassDef& cls : module.classes) {
    specs.push_back(extract_class_spec(cls, diagnostics));
  }
}

// -- Realizability ------------------------------------------------------------

std::string random_return(std::mt19937_64& rng, std::size_t ops) {
  std::string successors;
  for (std::size_t i = rng() % 3; i > 0; --i) {
    if (!successors.empty()) successors += ", ";
    successors += "\"op" + std::to_string(rng() % ops) + "\"";
  }
  return "return [" + successors + "]";
}

/// Appends 1-2 random statements at `indent`: valve calls, `pass`,
/// decodable returns, undecodable returns, a return made dead by the
/// return before it, and branches with and without `else` (a branch
/// without a return lets the body fall off its end).
void random_block(std::mt19937_64& rng, std::size_t ops, std::size_t depth,
                  const std::string& indent, std::string& out) {
  for (std::size_t i = 1 + rng() % 2; i > 0; --i) {
    switch (rng() % (depth < 2 ? 7 : 5)) {
      case 0:
        out += indent + "self.a.open()\n";
        break;
      case 1:
        out += indent + "pass\n";
        break;
      case 2:
        out += indent + random_return(rng, ops) + "\n";
        break;
      case 3:
        out += indent + "return 42\n";
        break;
      case 4:
        out += indent + random_return(rng, ops) + "\n";
        out += indent + random_return(rng, ops) + "\n";
        break;
      case 5:
        out += indent + "if x:\n";
        random_block(rng, ops, depth + 1, indent + "    ", out);
        break;
      default:
        out += indent + "if x:\n";
        random_block(rng, ops, depth + 1, indent + "    ", out);
        out += indent + "else:\n";
        random_block(rng, ops, depth + 1, indent + "    ", out);
        break;
    }
  }
}

/// A composite over one Valve with 1-4 operations named op0..op3 (a name
/// may be defined twice), random initial/final flags and random bodies.
std::string random_composite(std::mt19937_64& rng) {
  const std::size_t ops = 1 + rng() % 4;
  std::string out =
      "@sys([\"a\"])\nclass Rand:\n"
      "    def __init__(self):\n        self.a = Valve()\n";
  const std::size_t definitions = ops + rng() % 2;
  for (std::size_t i = 0; i < definitions; ++i) {
    const bool initial = i == 0 || rng() % 3 == 0;
    const bool final = rng() % 2 == 0;
    out += initial && final ? "    @op_initial_final\n"
           : initial        ? "    @op_initial\n"
           : final          ? "    @op_final\n"
                            : "    @op\n";
    out += "    def op" + std::to_string(i % ops) + "(self):\n";
    random_block(rng, ops, 0, "        ", out);
  }
  return out;
}

/// Checks one composite's realizable usage against the projection and
/// returns unrealizable_usage's witness.
std::optional<Word> expect_projection_exact(const std::string& source,
                                            SymbolTable& table) {
  std::deque<ClassSpec> specs;
  DiagnosticEngine diagnostics;
  load(source, specs, diagnostics);
  const ClassSpec& spec = specs.back();
  const auto behaviors = extract_behaviors(spec, table, diagnostics);
  const SystemModel model =
      build_system_model(spec, behaviors, table, diagnostics);
  UsageAutomaton usage(spec, table);

  const fsm::Dfa realizable = fsm::determinize(model.realizable);
  const fsm::Dfa projected = shelley::testing::projected_realizable(model);
  EXPECT_EQ(render(fsm::inclusion_witness(realizable, projected), table),
            "none")
      << source;
  EXPECT_EQ(render(fsm::inclusion_witness(projected, realizable), table),
            "none")
      << source;
  std::optional<Word> witness = unrealizable_usage(model, usage);
  const auto reference =
      shelley::testing::projected_unrealizable_usage(model, usage);
  EXPECT_EQ(render(witness, table), render(reference, table)) << source;
  return witness;
}

TEST(RealizabilityExactness, RandomCompositesMatchTheProjection) {
  std::size_t unrealizable = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 3);
    SymbolTable table;
    if (expect_projection_exact(random_composite(rng), table)) {
      ++unrealizable;
    }
    if (HasFailure()) return;
  }
  // The generator must reach both verdicts to pin anything.
  EXPECT_GT(unrealizable, 60u);
  EXPECT_LT(unrealizable, 540u);
}

/// farm-N whose repeatable operation also carries a dead return into
/// `stop`: the declared usage [run, stop] cannot be realized.
std::string farm_with_dead_exit(std::size_t n) {
  std::string fields;
  std::string init;
  std::string body;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string v = "self.v" + std::to_string(i);
    fields += (i == 0 ? "\"v" : ", \"v") + std::to_string(i) + "\"";
    init += "        " + v + " = Valve()\n";
    body += "        match " + v + ".test():\n";
    body += "            case [\"open\"]:\n";
    body += "                " + v + ".open()\n";
    body += "                " + v + ".close()\n";
    body += "            case [\"clean\"]:\n";
    body += "                " + v + ".clean()\n";
  }
  return "@sys([" + fields + "])\nclass Farm:\n    def __init__(self):\n" +
         init + "    @op_initial_final\n    def run(self):\n" + body +
         "        return [\"run\"]\n        return [\"stop\"]\n" +
         "    @op_final\n    def stop(self):\n        return []\n";
}

TEST(RealizabilityExactness, FarmWithOneDeadExitMatchesTheProjection) {
  for (std::size_t n = 1; n <= 16; ++n) {
    SymbolTable table;
    EXPECT_EQ(render(expect_projection_exact(farm_with_dead_exit(n), table),
                     table),
              "[run, stop]")
        << "farm-" << n;
  }
}

// -- One usage DFA per subsystem class ----------------------------------------

/// Drives field `f` of a composite either by the contract (a match on
/// test() whose two cases come in random order) or by a random
/// permutation of the four Valve operations.
std::string drive_field(std::mt19937_64& rng, const std::string& f) {
  const std::string v = "self." + f;
  if (rng() % 2 == 0) {
    const std::string open = "            case [\"open\"]:\n                " +
                             v + ".open()\n                " + v +
                             ".close()\n";
    const std::string clean =
        "            case [\"clean\"]:\n                " + v + ".clean()\n";
    return "        match " + v + ".test():\n" +
           (rng() % 2 == 0 ? open + clean : clean + open);
  }
  std::vector<std::string> calls{"test", "open", "close", "clean"};
  std::shuffle(calls.begin(), calls.end(), rng);
  std::string out;
  for (std::size_t i = 1 + rng() % calls.size(); i > 0; --i) {
    out += "        " + v + "." + calls[i - 1] + "()\n";
  }
  return out;
}

/// A composite over Valve fields a, b and c whose `run` drives the fields
/// in a random order.
std::string random_multi_valve(std::mt19937_64& rng) {
  std::vector<std::string> fields{"a", "b", "c"};
  std::shuffle(fields.begin(), fields.end(), rng);
  std::string body;
  for (const std::string& f : fields) body += drive_field(rng, f);
  return "@sys([\"a\", \"b\", \"c\"])\nclass Multi:\n"
         "    def __init__(self):\n"
         "        self.a = Valve()\n        self.b = Valve()\n"
         "        self.c = Valve()\n"
         "    @op_initial_final\n    def run(self):\n" +
         body + (rng() % 2 == 0 ? "        return [\"run\"]\n"
                                : "        return []\n");
}

using FieldVerdict = std::tuple<std::string, std::string, std::string>;

/// check_composite's subsystem verdicts against one usage DFA built per
/// field; returns the number of failing fields.
std::size_t expect_per_field_exact(const std::string& source) {
  std::deque<ClassSpec> specs;
  DiagnosticEngine diagnostics;
  SymbolTable table;
  load(source, specs, diagnostics);
  const ClassLookup lookup = [&](const std::string& name) -> const ClassSpec* {
    return name == "Valve" ? &specs.front() : nullptr;
  };
  const CheckResult result =
      check_composite(specs.back(), lookup, table, diagnostics);
  std::vector<FieldVerdict> actual;
  for (const SubsystemError& error : result.subsystem_errors) {
    actual.emplace_back(error.field, to_string(error.counterexample, table),
                        error.detail);
  }

  const auto behaviors = extract_behaviors(specs.back(), table, diagnostics);
  const SystemModel model =
      build_system_model(specs.back(), behaviors, table, diagnostics);
  const fsm::Dfa system =
      fsm::minimize(fsm::determinize(model.nfa, model.full_alphabet()));
  std::vector<FieldVerdict> expected;
  {
    const fsm::LiveRows rows(system);
    for (const SubsystemDecl& subsystem : specs.back().subsystems) {
      const std::string prefix = subsystem.field + ".";
      const fsm::Dfa usage = usage_dfa(specs.front(), table, prefix);
      const auto witness = fsm::projected_inclusion_witness(rows, usage);
      if (!witness) continue;
      Word projected;
      for (Symbol s : *witness) {
        if (starts_with(table.name(s), prefix)) projected.push_back(s);
      }
      expected.emplace_back(
          subsystem.field, to_string(*witness, table),
          diagnose_subsystem_usage(usage, subsystem.field, projected, table));
    }
  }
  EXPECT_EQ(actual, expected) << source;
  return expected.size();
}

TEST(SharedUsageExactness, FieldsWhoseSymbolsSortDifferently) {
  const std::string source = R"py(
@sys(["a", "b"])
class Pair:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def run(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
            case ["clean"]:
                self.a.clean()
        self.b.clean()
        self.b.close()
        self.b.open()
        self.b.test()
        return ["run"]
)py";
  EXPECT_EQ(expect_per_field_exact(source), 1u);
  // The premise: b's operations were interned in the reverse order of a's.
  std::deque<ClassSpec> specs;
  DiagnosticEngine diagnostics;
  SymbolTable table;
  load(source, specs, diagnostics);
  (void)extract_behaviors(specs.back(), table, diagnostics);
  EXPECT_LT(*table.lookup("a.test"), *table.lookup("a.clean"));
  EXPECT_LT(*table.lookup("b.clean"), *table.lookup("b.test"));
}

TEST(SharedUsageExactness, RandomMultiValveComposites) {
  std::size_t failing = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 17);
    failing += expect_per_field_exact(random_multi_valve(rng));
    if (HasFailure()) return;
  }
  EXPECT_GT(failing, 60u);
}

}  // namespace
}  // namespace shelley::core
