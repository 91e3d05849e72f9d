// Specification lints: hygiene findings on a single class specification
// that are not hard errors but almost always indicate a specification bug.
//
//   * unreachable operation     -- no chain of successors from any initial
//                                  operation reaches it;
//   * dead exit                 -- a non-final operation has an exit with no
//                                  successors: any run taking it can never
//                                  complete the instance's lifecycle;
//   * no final operation        -- no instance can ever be disposed;
//   * incompletable usage       -- some reachable state of the usage
//                                  automaton cannot reach acceptance (with a
//                                  shortest witness call sequence);
//   * duplicate successor       -- a return lists the same operation twice.
#pragma once

#include "shelley/spec.hpp"
#include "support/metrics.hpp"
#include "support/symbol.hpp"

namespace shelley::core {

class DependencyGraph;
class UsageAutomaton;

/// Tunable lint thresholds.  Everything defaults to "off"/permissive so a
/// default-constructed value reproduces the historical behavior exactly.
struct LintOptions {
  /// Warn when a class's minimized DFA exceeds this many states; 0 disables
  /// the budget lint.
  std::size_t dfa_state_budget = 0;
};

/// Runs every lint on `spec`; findings are reported as warnings.  Returns
/// the number of findings.
std::size_t lint_class(const ClassSpec& spec, SymbolTable& table,
                       DiagnosticEngine& diagnostics);

/// lint_class on inputs the verifier already holds: `spec`'s dependency
/// graph and its usage automaton.  The completability lint builds the
/// automaton on first use, after the reachability, exit and finality lints
/// have reported, and leaves it for the checks that follow.
std::size_t lint_class(const ClassSpec& spec, const DependencyGraph& graph,
                       UsageAutomaton& usage, SymbolTable& table,
                       DiagnosticEngine& diagnostics);

/// Budget lint: fires when the largest minimized DFA built while verifying
/// `spec` (as observed by the metrics sink) exceeds the configured budget.
/// Runs after the checks, because that is when the statistics exist.
/// Returns the number of findings (0 or 1).
std::size_t lint_state_budget(const ClassSpec& spec,
                              const support::metrics::AutomataStats& stats,
                              const LintOptions& options,
                              DiagnosticEngine& diagnostics);

}  // namespace shelley::core
