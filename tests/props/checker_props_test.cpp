// Differential validation of the composite checker itself: on randomly
// generated composites over Valve,
//
//   * when check_composite reports INVALID SUBSYSTEM USAGE, its
//     counterexample must really be a complete system behavior whose
//     projection is rejected by the subsystem's usage automaton;
//
//   * when it reports no subsystem error, every complete system behavior
//     (enumerated up to a length bound) must project to a valid usage.
//
// and, on farm-N composites of up to 16 Valves with one miswired valve,
// every counterexample is exactly the one an eager search against the
// ignore-extended monitor finds.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fsm/ops.hpp"
#include "paper_sources.hpp"
#include "props/eager_inclusion.hpp"
#include "shelley/checker.hpp"
#include "support/strings.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

/// Generates a composite class over one Valve whose single operation makes
/// a random (possibly invalid) sequence of valve calls.
std::string random_composite(std::mt19937_64& rng) {
  std::string body;
  const std::size_t calls = 1 + rng() % 4;
  for (std::size_t i = 0; i < calls; ++i) {
    switch (rng() % 4) {
      case 0:
        // The only legal way to test: branch on the result.
        body +=
            "        match self.a.test():\n"
            "            case [\"open\"]:\n"
            "                self.a.open()\n"
            "                self.a.close()\n"
            "            case [\"clean\"]:\n"
            "                self.a.clean()\n";
        break;
      case 1:
        body += "        self.a.open()\n";
        break;
      case 2:
        body += "        self.a.close()\n";
        break;
      default:
        body += "        self.a.clean()\n";
        break;
    }
  }
  const bool repeatable = rng() % 2 == 0;
  body += repeatable ? "        return [\"run\"]\n"
                     : "        return []\n";
  return "@sys([\"a\"])\nclass Rand:\n"
         "    def __init__(self):\n        self.a = Valve()\n"
         "    @op_initial_final\n    def run(self):\n" +
         body;
}

/// Enumerates accepted words of `dfa` with length <= max_length (BFS).
std::vector<Word> accepted_words(const fsm::Dfa& dfa,
                                 std::size_t max_length) {
  std::vector<Word> out;
  std::vector<std::pair<fsm::StateId, Word>> frontier{{dfa.initial(), {}}};
  for (std::size_t length = 0; length <= max_length; ++length) {
    std::vector<std::pair<fsm::StateId, Word>> next;
    for (const auto& [state, word] : frontier) {
      if (dfa.is_accepting(state)) out.push_back(word);
      if (word.size() == length && length < max_length) {
        for (std::size_t letter = 0; letter < dfa.alphabet().size();
             ++letter) {
          Word extended = word;
          extended.push_back(dfa.alphabet()[letter]);
          next.emplace_back(dfa.transition(state, letter),
                            std::move(extended));
        }
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return out;
}

class CheckerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CheckerDifferential, VerdictMatchesBruteForce) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);

  std::deque<ClassSpec> specs;
  DiagnosticEngine diagnostics;
  SymbolTable table;
  const upy::Module valve = upy::parse_module(examples::kValveSource);
  specs.push_back(extract_class_spec(valve.classes.at(0), diagnostics));
  const upy::Module composite =
      upy::parse_module(random_composite(rng));
  specs.push_back(
      extract_class_spec(composite.classes.at(0), diagnostics));
  const ClassLookup lookup = [&](const std::string& name) ->
      const ClassSpec* {
    for (const ClassSpec& spec : specs) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  };

  const CheckResult result =
      check_composite(specs.back(), lookup, table, diagnostics);

  // Ground truth machinery.
  const auto behaviors = extract_behaviors(specs.back(), table, diagnostics);
  const SystemModel model =
      build_system_model(specs.back(), behaviors, table, diagnostics);
  const fsm::Dfa system =
      fsm::determinize(model.nfa, model.full_alphabet());
  const fsm::Nfa valve_usage = usage_nfa(specs.front(), table, "a.");

  const auto project = [&](const Word& word) {
    Word out;
    for (Symbol s : word) {
      if (starts_with(table.name(s), "a.")) out.push_back(s);
    }
    return out;
  };

  if (result.subsystem_errors.empty()) {
    // Every complete behavior up to length 8 must project validly.
    for (const Word& word : accepted_words(system, 8)) {
      EXPECT_TRUE(valve_usage.accepts(project(word)))
          << "checker missed invalid usage on trace ["
          << to_string(word, table) << "] of:\n"
          << random_composite(rng);
    }
  } else {
    // The counterexample must be a real complete behavior with an invalid
    // projection.
    const Word& cex = result.subsystem_errors[0].counterexample;
    EXPECT_TRUE(system.accepts(cex))
        << "counterexample is not a system behavior";
    EXPECT_FALSE(valve_usage.accepts(project(cex)))
        << "counterexample's projection is actually valid";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerDifferential,
                         ::testing::Range(0, 40));

enum class FarmBug { kCloseBeforeOpen, kOpenNeverClosed };

/// farm-N: N Valves driven through `match` in one repeatable operation,
/// with the valve at `broken` miswired by `bug`.
std::string broken_farm(std::size_t n, std::size_t broken, FarmBug bug) {
  std::string fields;
  std::string init;
  std::string body;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string field = "v" + std::to_string(i);
    const std::string v = "self." + field;
    fields += (i == 0 ? "\"" : ", \"") + field + "\"";
    init += "        " + v + " = Valve()\n";
    body += "        match " + v + ".test():\n";
    body += "            case [\"open\"]:\n";
    if (i == broken && bug == FarmBug::kCloseBeforeOpen) {
      body += "                " + v + ".close()\n";
      body += "                " + v + ".open()\n";
    } else {
      body += "                " + v + ".open()\n";
      if (i != broken) body += "                " + v + ".close()\n";
    }
    body += "            case [\"clean\"]:\n";
    body += "                " + v + ".clean()\n";
  }
  return "@sys([" + fields + "])\nclass Farm:\n    def __init__(self):\n" +
         init + "    @op_initial_final\n    def run(self):\n" + body +
         "        return [\"run\"]\n";
}

TEST(CheckerFarmWitness, CounterexamplesMatchEagerMonitorSearchExactly) {
  const upy::Module valve = upy::parse_module(examples::kValveSource);
  for (std::size_t n = 1; n <= 16; ++n) {
    for (std::size_t broken = 0; broken < n; ++broken) {
      for (const FarmBug bug :
           {FarmBug::kCloseBeforeOpen, FarmBug::kOpenNeverClosed}) {
        const std::string tag =
            "farm-" + std::to_string(n) + ", v" + std::to_string(broken) +
            (bug == FarmBug::kCloseBeforeOpen ? " closes before opening"
                                              : " is never closed");
        std::deque<ClassSpec> specs;
        DiagnosticEngine diagnostics;
        SymbolTable table;
        specs.push_back(extract_class_spec(valve.classes.at(0), diagnostics));
        const upy::Module farm =
            upy::parse_module(broken_farm(n, broken, bug));
        specs.push_back(extract_class_spec(farm.classes.at(0), diagnostics));
        const ClassLookup lookup =
            [&](const std::string& name) -> const ClassSpec* {
          return name == "Valve" ? &specs.front() : nullptr;
        };
        const CheckResult result =
            check_composite(specs.back(), lookup, table, diagnostics);

        // The reference, from the same system model.
        const auto behaviors =
            extract_behaviors(specs.back(), table, diagnostics);
        const SystemModel model =
            build_system_model(specs.back(), behaviors, table, diagnostics);
        const std::vector<Symbol> alphabet = model.full_alphabet();
        const fsm::Dfa system =
            fsm::minimize(fsm::determinize(model.nfa, alphabet));
        std::vector<std::pair<std::string, Word>> expected;
        for (const SubsystemDecl& subsystem : specs.back().subsystems) {
          const fsm::Dfa usage = fsm::minimize(fsm::determinize(
              usage_nfa(specs.front(), table, subsystem.field + ".")));
          if (auto witness = shelley::testing::eager_inclusion_witness(
                  system, fsm::extend_alphabet_ignore(usage, alphabet))) {
            expected.emplace_back(subsystem.field, std::move(*witness));
          }
        }

        ASSERT_EQ(expected.size(), 1u) << tag;
        EXPECT_EQ(expected[0].first, "v" + std::to_string(broken)) << tag;
        ASSERT_EQ(result.subsystem_errors.size(), expected.size()) << tag;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const SubsystemError& error = result.subsystem_errors[i];
          EXPECT_EQ(error.field, expected[i].first) << tag;
          EXPECT_EQ(error.counterexample, expected[i].second)
              << tag << ": checker [" << to_string(error.counterexample, table)
              << "] vs eager [" << to_string(expected[i].second, table)
              << "]";
        }
      }
    }
  }
}

}  // namespace
}  // namespace shelley::core
