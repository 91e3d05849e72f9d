#include "shelley/lint.hpp"

#include <algorithm>
#include <set>

#include "fsm/ops.hpp"
#include "shelley/automata.hpp"
#include "shelley/graph.hpp"
#include "support/strings.hpp"

namespace shelley::core {
namespace {

std::size_t lint_reachability(const ClassSpec& spec,
                              const DependencyGraph& graph,
                              DiagnosticEngine& diagnostics) {
  const auto reachable_list = graph.reachable_operations(spec);
  const std::set<std::string> reachable(reachable_list.begin(),
                                        reachable_list.end());
  std::size_t findings = 0;
  for (const Operation& op : spec.operations) {
    if (!reachable.contains(op.name)) {
      diagnostics.warning(op.loc,
                          "operation '" + op.name +
                              "' is unreachable from the initial operations");
      ++findings;
    }
  }
  return findings;
}

std::size_t lint_exits(const ClassSpec& spec,
                       DiagnosticEngine& diagnostics) {
  std::size_t findings = 0;
  for (const Operation& op : spec.operations) {
    for (const ExitPoint& exit : op.exits) {
      if (exit.successors.empty() && !op.final) {
        diagnostics.warning(
            exit.loc, "operation '" + op.name +
                          "' is not final but this exit allows no "
                          "successor: runs taking it can never complete");
        ++findings;
      }
      std::set<std::string> seen;
      for (const std::string& successor : exit.successors) {
        if (!seen.insert(successor).second) {
          diagnostics.warning(exit.loc,
                              "operation '" + op.name +
                                  "': successor '" + successor +
                                  "' is listed more than once");
          ++findings;
        }
      }
    }
  }
  return findings;
}

std::size_t lint_finality(const ClassSpec& spec,
                          DiagnosticEngine& diagnostics) {
  if (spec.operations.empty() || !spec.final_operations().empty()) return 0;
  diagnostics.warning(spec.loc,
                      "class '" + spec.name +
                          "' declares no @op_final operation; no usage of "
                          "an instance can ever complete");
  return 1;
}

std::size_t lint_completability(const ClassSpec& spec, UsageAutomaton& usage,
                                SymbolTable& table,
                                DiagnosticEngine& diagnostics) {
  if (spec.operations.empty()) return 0;
  // Work on the subset construction directly: a *valid* prefix is one whose
  // subset state is non-empty; the lint fires when a valid prefix's subset
  // is dead (cannot reach acceptance).  The empty subset -- reached by
  // undeclared call sequences -- is legitimately dead and must not fire.
  const fsm::Dfa& dfa = usage.subsets();
  const std::vector<Symbol>& sigma = dfa.alphabet();
  const std::vector<bool> live = fsm::live_states(dfa);

  // Identify the empty-subset sink: replay each DFA state's subset via the
  // NFA.  Cheaper: a state is the empty sink iff it is dead, non-accepting,
  // and every transition self-loops.  A stuck-but-valid state either has an
  // edge to a different (sink) state or differs in acceptance.
  const auto is_empty_sink = [&](fsm::StateId s) {
    if (live[s] || dfa.is_accepting(s)) return false;
    for (std::size_t letter = 0; letter < sigma.size(); ++letter) {
      if (dfa.transition(s, letter) != s) return false;
    }
    return true;
  };

  struct Parent {
    fsm::StateId state = 0;
    std::size_t letter = 0;
    bool has_parent = false;
  };
  std::vector<bool> visited(dfa.state_count(), false);
  std::vector<Parent> parents(dfa.state_count());
  std::vector<fsm::StateId> queue{dfa.initial()};
  visited[dfa.initial()] = true;
  std::optional<fsm::StateId> stuck;
  if (!live[dfa.initial()] && !is_empty_sink(dfa.initial())) {
    stuck = dfa.initial();
  }
  for (std::size_t head = 0; head < queue.size() && !stuck; ++head) {
    const fsm::StateId s = queue[head];
    if (!live[s]) continue;  // don't search past dead states
    for (std::size_t letter = 0; letter < sigma.size(); ++letter) {
      const fsm::StateId t = dfa.transition(s, letter);
      if (visited[t]) continue;
      visited[t] = true;
      parents[t] = Parent{s, letter, true};
      if (!live[t] && !is_empty_sink(t)) {
        stuck = t;
        break;
      }
      queue.push_back(t);
    }
  }
  if (!stuck) return 0;

  Word witness;
  for (fsm::StateId s = *stuck; parents[s].has_parent;
       s = parents[s].state) {
    witness.push_back(sigma[parents[s].letter]);
  }
  std::reverse(witness.begin(), witness.end());
  diagnostics.warning(
      spec.loc, "class '" + spec.name + "': the call sequence [" +
                    to_string(witness, table) +
                    "] can never be completed (no final operation is "
                    "reachable from there)");
  return 1;
}

}  // namespace

std::size_t lint_class(const ClassSpec& spec, SymbolTable& table,
                       DiagnosticEngine& diagnostics) {
  DiagnosticEngine scratch;  // graph errors are reported by verify_spec
  UsageAutomaton usage(spec, table);
  return lint_class(spec, DependencyGraph::build(spec, scratch), usage, table,
                    diagnostics);
}

std::size_t lint_class(const ClassSpec& spec, const DependencyGraph& graph,
                       UsageAutomaton& usage, SymbolTable& table,
                       DiagnosticEngine& diagnostics) {
  std::size_t findings = 0;
  findings += lint_reachability(spec, graph, diagnostics);
  findings += lint_exits(spec, diagnostics);
  findings += lint_finality(spec, diagnostics);
  findings += lint_completability(spec, usage, table, diagnostics);
  return findings;
}

std::size_t lint_state_budget(const ClassSpec& spec,
                              const support::metrics::AutomataStats& stats,
                              const LintOptions& options,
                              DiagnosticEngine& diagnostics) {
  if (options.dfa_state_budget == 0 || !stats.collected) return 0;
  // dfa_states_after is the largest minimized DFA seen while verifying the
  // class; fall back to the raw subset-construction size when no minimizer
  // ran (base classes without claims never minimize).
  const std::uint64_t states = stats.dfa_states_after != 0
                                   ? stats.dfa_states_after
                                   : stats.dfa_states_before;
  if (states <= options.dfa_state_budget) return 0;
  diagnostics.warning(
      spec.loc, "class '" + spec.name + "': inferred automaton has " +
                    std::to_string(states) +
                    " states, exceeding the configured budget of " +
                    std::to_string(options.dfa_state_budget) +
                    " (consider splitting the specification)");
  return 1;
}

}  // namespace shelley::core
