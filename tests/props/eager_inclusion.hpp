// The eager inclusion reference the kernel's lazy searches are pinned to,
// witness for witness: join the alphabets, build the whole difference
// product, then BFS for a shortest accepted word.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "fsm/ops.hpp"

namespace shelley::testing {

inline std::optional<Word> eager_inclusion_witness(const fsm::Dfa& a,
                                                   const fsm::Dfa& b) {
  std::vector<Symbol> joined = a.alphabet();
  joined.insert(joined.end(), b.alphabet().begin(), b.alphabet().end());
  std::sort(joined.begin(), joined.end());
  joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
  const fsm::Dfa ea = fsm::extend_alphabet(a, joined);
  const fsm::Dfa eb = fsm::extend_alphabet(b, joined);
  return fsm::shortest_word(
      fsm::product(ea, eb, fsm::ProductMode::kDifference));
}

}  // namespace shelley::testing
