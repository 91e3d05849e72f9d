// The traced run's replay: an operation's inputs driven again through the
// public functions of the layers below the engine, each call in its own
// span, so layers the workload reaches only through `engine` get numbers
// from outside the program.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "engine/memo.hpp"
#include "engine/workspace.hpp"
#include "harness.hpp"
#include "shelley/checker.hpp"
#include "shelley/spec.hpp"
#include "shelley/verifier.hpp"
#include "upy/ast.hpp"

namespace perfbench {

/// Run totals the replay counts besides its spans.
struct ReplayCounts {
  double lexed_bytes = 0;
  double dfa_states = 0;
  double min_states = 0;
  double alphabet_letters = 0;
  double claims = 0;
};

/// Memo and parse-memo lookups of the traced operations, from the
/// engine's own counters read before and after each one.
struct EngineCounts {
  double memo_hits = 0;
  double memo_lookups = 0;
  double parse_hits = 0;
  double parse_lookups = 0;

  void add(const shelley::engine::MemoStats& memo_before,
           const shelley::engine::MemoStats& memo_after,
           const shelley::engine::ParseStats& parse_before,
           const shelley::engine::ParseStats& parse_after);
};

/// The front end over one source: upy.lex, upy.parse (which lexes again)
/// and shelley.spec.  The specs point into `module`, which must outlive
/// them.
std::deque<shelley::core::ClassSpec> replay_front(Tracer& tracer,
                                                  ReplayCounts& counts,
                                                  const std::string& text,
                                                  shelley::upy::Module& module);

/// shelley.key: Verifier::cache_key of every class `verifier` registered.
void replay_keys(Tracer& tracer, const shelley::core::Verifier& verifier);

/// The per-class pipeline for `classes`: shelley.checks (dependency graph,
/// invocation analysis, lints), then the automata work of
/// check_base_claims and check_composite -- ir.behaviors,
/// shelley.system_model, fsm.usage_nfa, fsm.determinize, fsm.minimize,
/// fsm.inclusion and ltlf.claims.  The completability lint's own subset
/// construction stays inside shelley.checks, as lint_class is one call.
void replay_checks(Tracer& tracer, ReplayCounts& counts,
                   const std::vector<const shelley::core::ClassSpec*>& classes,
                   const shelley::core::ClassLookup& lookup);

}  // namespace perfbench
