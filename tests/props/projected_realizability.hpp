// The realizability reference the checker's realizable usage is pinned to,
// witness for witness: erase the subsystem events of the whole system NFA,
// determinize that op-label projection, and search the declared usage
// against it.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "fsm/ops.hpp"
#include "shelley/automata.hpp"

namespace shelley::testing {

/// The op-label projection of `model.nfa`, determinized over every
/// operation label.
inline fsm::Dfa projected_realizable(const core::SystemModel& model) {
  const std::set<Symbol> op_labels(model.op_symbols.begin(),
                                   model.op_symbols.end());
  const fsm::Nfa projected = fsm::map_labels(model.nfa, [&](Symbol s) {
    return op_labels.contains(s) ? s : Symbol{};
  });
  return fsm::determinize(
      projected, std::vector<Symbol>(op_labels.begin(), op_labels.end()));
}

/// A shortest declared usage that `projected_realizable(model)` rejects.
inline std::optional<Word> projected_unrealizable_usage(
    const core::SystemModel& model, core::UsageAutomaton& usage) {
  return fsm::inclusion_witness(usage.subsets(), projected_realizable(model));
}

}  // namespace shelley::testing
