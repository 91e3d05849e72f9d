#include "shelley/sampler.hpp"

#include <deque>

#include "fsm/ops.hpp"
#include "shelley/automata.hpp"

namespace shelley::core {
namespace {

/// Per-state distance to the nearest accepting state (BFS on the reversed
/// graph); used to steer the tail of a walk toward completion.
std::vector<std::size_t> acceptance_distance(const fsm::Dfa& dfa) {
  constexpr auto kInf = static_cast<std::size_t>(-1);
  std::vector<std::size_t> distance(dfa.state_count(), kInf);
  std::vector<std::vector<fsm::StateId>> predecessors(dfa.state_count());
  for (fsm::StateId s = 0; s < dfa.state_count(); ++s) {
    for (std::size_t letter = 0; letter < dfa.alphabet().size(); ++letter) {
      predecessors[dfa.transition(s, letter)].push_back(s);
    }
  }
  std::deque<fsm::StateId> work;
  for (fsm::StateId s = 0; s < dfa.state_count(); ++s) {
    if (dfa.is_accepting(s)) {
      distance[s] = 0;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const fsm::StateId s = work.front();
    work.pop_front();
    for (fsm::StateId p : predecessors[s]) {
      if (distance[p] == kInf) {
        distance[p] = distance[s] + 1;
        work.push_back(p);
      }
    }
  }
  return distance;
}

}  // namespace

TraceSampler::TraceSampler(const ClassSpec& spec, SymbolTable& table,
                           std::uint64_t seed)
    : table_(&table),
      dfa_(usage_dfa(spec, table)),
      live_(fsm::live_states(dfa_)),
      rng_(seed) {}

std::vector<std::string> TraceSampler::sample(std::size_t max_length,
                                              double stop_bias) {
  const std::vector<std::size_t> distance = acceptance_distance(dfa_);
  std::vector<std::string> out;
  fsm::StateId state = dfa_.initial();
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  for (std::size_t step = 0; step < max_length; ++step) {
    if (dfa_.is_accepting(state) && coin(rng_) < stop_bias) break;

    // Collect live successors; once near the length cap, insist on moves
    // that shrink the distance to acceptance so the walk can finish.
    const std::size_t budget = max_length - step;
    std::vector<std::size_t> candidates;
    for (std::size_t letter = 0; letter < dfa_.alphabet().size(); ++letter) {
      const fsm::StateId next = dfa_.transition(state, letter);
      if (!live_[next]) continue;
      if (distance[next] + 1 > budget) continue;  // could not finish
      candidates.push_back(letter);
    }
    if (candidates.empty()) break;  // accepting (or stuck): stop here
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    candidates.size() - 1);
    const std::size_t letter = candidates[pick(rng_)];
    out.push_back(table_->name(dfa_.alphabet()[letter]));
    state = dfa_.transition(state, letter);
  }

  // If the cap was too tight to reach acceptance (only possible when the
  // spec's shortest completion exceeds max_length), walk greedily along
  // distance-decreasing edges so every sample is a complete usage.
  while (!dfa_.is_accepting(state)) {
    bool progressed = false;
    for (std::size_t letter = 0; letter < dfa_.alphabet().size(); ++letter) {
      const fsm::StateId next = dfa_.transition(state, letter);
      if (live_[next] && distance[next] + 1 == distance[state]) {
        out.push_back(table_->name(dfa_.alphabet()[letter]));
        state = next;
        progressed = true;
        break;
      }
    }
    if (!progressed) break;  // dead spec (no completion exists at all)
  }
  return out;
}

}  // namespace shelley::core
