// Scaling and ablation benchmarks for the design decisions called out in
// DESIGN.md:
//
//   #1 interned symbols vs string-keyed lookups for event labels;
//   #2 raw vs smart-constructor (simplified) regexes downstream;
//   scalability sweeps the paper's restricted model implies: number of
//   operations, exits per operation, subsystems per composite, claim size.
#include "bench_common.hpp"

#include <map>
#include <string>

#include "fsm/ops.hpp"
#include "fsm/thompson.hpp"
#include "fsm/to_regex.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/parser.hpp"
#include "shelley/automata.hpp"
#include "shelley/checker.hpp"
#include "support/alloc.hpp"
#include "upy/parser.hpp"

namespace {

using namespace shelley;

void print_artifact() {
  shelley::bench::artifact_banner(
      "scaling sweeps (ops, exits, subsystems, claim size) + ablations");
  std::printf("see timings below; counters carry model sizes\n");
  shelley::bench::end_banner();
}

// -- Sweep: operations per class ------------------------------------------------

void BM_UsageAutomaton_OpsSweep(benchmark::State& state) {
  const std::string source = shelley::bench::synthetic_class(
      static_cast<std::size_t>(state.range(0)), 2);
  const upy::Module module = upy::parse_module(source);
  DiagnosticEngine diagnostics;
  const core::ClassSpec spec =
      core::extract_class_spec(module.classes.at(0), diagnostics);
  std::size_t states = 0;
  for (auto _ : state) {
    SymbolTable table;
    const fsm::Dfa dfa =
        fsm::minimize(fsm::determinize(core::usage_nfa(spec, table)));
    states = dfa.state_count();
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["minimal_states"] = static_cast<double>(states);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UsageAutomaton_OpsSweep)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

// -- Sweep: exits per operation --------------------------------------------------

void BM_UsageAutomaton_ExitsSweep(benchmark::State& state) {
  const std::string source = shelley::bench::synthetic_class(
      16, static_cast<std::size_t>(state.range(0)));
  const upy::Module module = upy::parse_module(source);
  DiagnosticEngine diagnostics;
  const core::ClassSpec spec =
      core::extract_class_spec(module.classes.at(0), diagnostics);
  for (auto _ : state) {
    SymbolTable table;
    benchmark::DoNotOptimize(
        fsm::determinize(core::usage_nfa(spec, table)));
  }
}
BENCHMARK(BM_UsageAutomaton_ExitsSweep)->DenseRange(1, 6, 1);

// -- Sweep: subsystems per composite ---------------------------------------------

void BM_CompositeCheck_SubsystemSweep(benchmark::State& state) {
  core::Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(shelley::bench::synthetic_composite(
      static_cast<std::size_t>(state.range(0))));
  const core::ClassSpec* farm = verifier.find_class("Farm");
  const core::ClassLookup lookup = [&](const std::string& name) {
    return verifier.find_class(name);
  };
  for (auto _ : state) {
    DiagnosticEngine diagnostics;
    benchmark::DoNotOptimize(core::check_composite(
        *farm, lookup, verifier.symbols(), diagnostics));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompositeCheck_SubsystemSweep)
    ->RangeMultiplier(2)
    ->Range(1, 256)
    ->Complexity();

// -- Sweep: claim size -------------------------------------------------------------

void BM_LtlfToDfa_FormulaSizeSweep(benchmark::State& state) {
  SymbolTable table;
  // G (e0 -> X (e1 -> X (e2 -> ...)))  -- nested response chains.
  std::string text;
  for (int i = 0; i < state.range(0); ++i) {
    text += "G (e" + std::to_string(i) + " -> X ";
  }
  text += "true";
  for (int i = 0; i < state.range(0); ++i) text += ")";
  const ltlf::Formula formula = ltlf::parse(text, table);
  std::vector<Symbol> sigma;
  for (int i = 0; i < state.range(0); ++i) {
    sigma.push_back(table.intern("e" + std::to_string(i)));
  }
  std::size_t states = 0;
  for (auto _ : state) {
    const fsm::Dfa dfa = ltlf::to_dfa(formula, sigma);
    states = dfa.state_count();
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["dfa_states"] = static_cast<double>(states);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LtlfToDfa_FormulaSizeSweep)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Complexity();

// -- Ablation #1: interned symbols vs string maps ----------------------------------

void BM_Ablation_InternedTransitionLookup(benchmark::State& state) {
  SymbolTable table;
  std::vector<Symbol> alphabet;
  for (int i = 0; i < 64; ++i) {
    alphabet.push_back(table.intern("subsystem.op" + std::to_string(i)));
  }
  std::sort(alphabet.begin(), alphabet.end());
  fsm::Dfa dfa(64, alphabet);
  for (fsm::StateId s = 0; s < 64; ++s) {
    for (std::size_t letter = 0; letter < alphabet.size(); ++letter) {
      dfa.set_transition(s, letter,
                         static_cast<fsm::StateId>((s + letter) % 64));
    }
  }
  Word word;
  for (int i = 0; i < 1024; ++i) word.push_back(alphabet[i % 64]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfa.run(word));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Ablation_InternedTransitionLookup);

void BM_Ablation_StringKeyedTransitionLookup(benchmark::State& state) {
  // The same machine with a std::map<std::string, ...> transition table --
  // what the implementation would look like without interning.
  std::vector<std::string> alphabet;
  for (int i = 0; i < 64; ++i) {
    alphabet.push_back("subsystem.op" + std::to_string(i));
  }
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> table;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint32_t letter = 0; letter < 64; ++letter) {
      table[{s, alphabet[letter]}] = (s + letter) % 64;
    }
  }
  std::vector<std::string> word;
  for (int i = 0; i < 1024; ++i) word.push_back(alphabet[i % 64]);
  for (auto _ : state) {
    std::uint32_t current = 0;
    for (const std::string& event : word) {
      current = table.at({current, event});
    }
    benchmark::DoNotOptimize(current);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Ablation_StringKeyedTransitionLookup);

// -- Ablation #2: raw vs simplified regexes downstream ------------------------------

void BM_Ablation_DeterminizeRawRegex(benchmark::State& state) {
  core::Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  DiagnosticEngine diagnostics;
  const auto behaviors = core::extract_behaviors(
      *verifier.find_class("BadSector"), verifier.symbols(), diagnostics);
  for (auto _ : state) {
    for (const auto& [name, behavior] : behaviors) {
      rex::Regex raw = behavior.behavior.ongoing;
      for (const auto& returned : behavior.behavior.returned) {
        raw = rex::alt(raw, returned.regex);
      }
      benchmark::DoNotOptimize(
          fsm::determinize(fsm::from_regex(raw)));
    }
  }
}
BENCHMARK(BM_Ablation_DeterminizeRawRegex);

void BM_Ablation_DeterminizeSimplifiedRegex(benchmark::State& state) {
  core::Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  DiagnosticEngine diagnostics;
  const auto behaviors = core::extract_behaviors(
      *verifier.find_class("BadSector"), verifier.symbols(), diagnostics);
  for (auto _ : state) {
    for (const auto& [name, behavior] : behaviors) {
      benchmark::DoNotOptimize(
          fsm::determinize(fsm::from_regex(behavior.inferred)));
    }
  }
}
BENCHMARK(BM_Ablation_DeterminizeSimplifiedRegex);

// -- Ablation: Moore vs Brzozowski minimization --------------------------------

fsm::Dfa ring_dfa(std::size_t ops) {
  core::Verifier verifier;
  verifier.add_source(shelley::bench::synthetic_class(ops, 2));
  SymbolTable table;
  return fsm::determinize(
      core::usage_nfa(*verifier.find_class("Ring"), table));
}

void BM_Ablation_MinimizeMoore(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::minimize_moore(dfa));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Ablation_MinimizeMoore)->RangeMultiplier(2)->Range(4, 64)
    ->Complexity();

void BM_Ablation_MinimizeBrzozowski(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::minimize_brzozowski(dfa));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Ablation_MinimizeBrzozowski)->RangeMultiplier(2)->Range(4, 64)
    ->Complexity();

// -- Automata-kernel micro-benchmarks (minimize / inclusion / equivalence) -----
//
// The production-sized rings the verifier meets in practice: 50..400
// operations, i.e. DFAs with ~100..800 states over alphabets of the same
// order.  Each new algorithm is benchmarked against the eager reference it
// replaced; the eager product references stop at 200 ops because the
// materialized n·m product at 400 ops costs ~1 GB.

/// The seed's eager inclusion check: full difference product + BFS.
std::optional<Word> eager_inclusion(const fsm::Dfa& a, const fsm::Dfa& b) {
  std::vector<Symbol> joined = a.alphabet();
  joined.insert(joined.end(), b.alphabet().begin(), b.alphabet().end());
  std::sort(joined.begin(), joined.end());
  joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
  return fsm::shortest_word(fsm::product(fsm::extend_alphabet(a, joined),
                                         fsm::extend_alphabet(b, joined),
                                         fsm::ProductMode::kDifference));
}

/// The tentpole target: determinize+minimize on the ring-N family (the
/// branching rings the incremental/daemon benches verify end to end), timed
/// with the heap-allocation counter alongside so the flat-kernel claims --
/// time *and* allocations -- are recorded in BENCH_automata.json.
void BM_Kernel_DeterminizeMinimize(benchmark::State& state) {
  core::Verifier verifier;
  verifier.add_source(shelley::bench::synthetic_class(
      static_cast<std::size_t>(state.range(0)), 8));
  SymbolTable table;
  const fsm::Nfa nfa =
      core::usage_nfa(*verifier.find_class("Ring"), table);
  std::size_t states = 0;
  // One warmup outside the timed loop so thread-local scratch pools are
  // already grown; the steady-state allocation count is the claim.
  benchmark::DoNotOptimize(fsm::minimize(fsm::determinize(nfa)));
  const std::uint64_t allocs_before = support::alloc::allocation_count();
  std::uint64_t iters = 0;
  for (auto _ : state) {
    const fsm::Dfa minimal = fsm::minimize(fsm::determinize(nfa));
    states = minimal.state_count();
    ++iters;
    benchmark::DoNotOptimize(minimal);
  }
  const std::uint64_t allocs =
      support::alloc::allocation_count() - allocs_before;
  state.counters["minimal_states"] = static_cast<double>(states);
  state.counters["heap_allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(iters == 0 ? 1 : iters);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Kernel_DeterminizeMinimize)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

void BM_Minimize_Hopcroft(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::minimize_hopcroft(dfa));
  }
  state.counters["states"] = static_cast<double>(dfa.state_count());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Minimize_Hopcroft)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

void BM_Minimize_Moore(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::minimize_moore(dfa));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Minimize_Moore)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

void BM_Inclusion_Lazy(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  const fsm::Dfa minimal = fsm::minimize(dfa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::inclusion_witness(dfa, minimal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Inclusion_Lazy)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

void BM_Inclusion_EagerProduct(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  const fsm::Dfa minimal = fsm::minimize(dfa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eager_inclusion(dfa, minimal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Inclusion_EagerProduct)->Arg(50)->Arg(100)->Arg(200)
    ->Complexity();

void BM_Equivalence_UnionFind(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  const fsm::Dfa minimal = fsm::minimize(dfa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm::equivalent(dfa, minimal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Equivalence_UnionFind)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

void BM_Equivalence_EagerProduct(benchmark::State& state) {
  const fsm::Dfa dfa = ring_dfa(static_cast<std::size_t>(state.range(0)));
  const fsm::Dfa minimal = fsm::minimize(dfa);
  for (auto _ : state) {
    const bool eq = !eager_inclusion(dfa, minimal).has_value() &&
                    !eager_inclusion(minimal, dfa).has_value();
    benchmark::DoNotOptimize(eq);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Equivalence_EagerProduct)->Arg(50)->Arg(100)->Arg(200)
    ->Complexity();

// -- Usage language back to a regex (Kleene round trip) -------------------------

void BM_UsageLanguageToRegex(benchmark::State& state) {
  core::Verifier verifier;
  verifier.add_source(shelley::bench::synthetic_class(
      static_cast<std::size_t>(state.range(0))));
  const core::ClassSpec* spec = verifier.find_class("Ring");
  std::size_t regex_size = 0;
  for (auto _ : state) {
    SymbolTable table;
    const rex::Regex r = fsm::to_regex(core::usage_nfa(*spec, table));
    regex_size = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["regex_nodes"] = static_cast<double>(regex_size);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UsageLanguageToRegex)->RangeMultiplier(2)->Range(2, 16)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
