#include "shelley/compare.hpp"

#include "fsm/ops.hpp"
#include "shelley/automata.hpp"

namespace shelley::core {

std::optional<SpecDifference> compare_specs(const ClassSpec& first,
                                            const ClassSpec& second,
                                            SymbolTable& table) {
  const fsm::Dfa lhs = usage_dfa(first, table);
  const fsm::Dfa rhs = usage_dfa(second, table);
  if (const auto witness = fsm::inclusion_witness(lhs, rhs)) {
    return SpecDifference{*witness, true};
  }
  if (const auto witness = fsm::inclusion_witness(rhs, lhs)) {
    return SpecDifference{*witness, false};
  }
  return std::nullopt;
}

}  // namespace shelley::core
