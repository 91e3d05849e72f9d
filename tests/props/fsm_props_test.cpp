// Differential properties of the automata kernel, on seeded random DFAs:
//
//   * the three minimizers (Hopcroft, Moore, Brzozowski) agree on the
//     minimal state count and on the language;
//
//   * the lazy pair-state inclusion search returns exactly the witness the
//     eager reference (extend alphabets, difference product, BFS shortest
//     word) returns -- not just an equivalent one;
//
//   * the union-find equivalence check agrees with the eager
//     two-directional inclusion reference;
//
//   * the projected inclusion search returns exactly the witness of the
//     eager reference against the ignore-extended monitor, on systems with
//     a dead sink and usages over partly foreign alphabets.
//
// Each property runs over >= 1000 random automata.  Every round reseeds its
// RNG from mix(suite seed, round), so a single failing round is
// reproducible in isolation -- paste the seed from the failure message into
// `round_rng` -- instead of depending on the hidden RNG state of the 999
// rounds before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "fsm/ops.hpp"
#include "props/eager_inclusion.hpp"
#include "testing.hpp"

namespace shelley::fsm {
namespace {

constexpr int kRounds = 1000;

/// splitmix64 of (suite seed, round): well-distributed even though the
/// inputs are tiny and sequential.
std::uint64_t round_seed(std::uint64_t suite_seed, int round) {
  std::uint64_t z = suite_seed +
                    0x9e3779b97f4a7c15ULL *
                        (static_cast<std::uint64_t>(round) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::mt19937_64 round_rng(std::uint64_t seed) { return std::mt19937_64(seed); }

/// "round 17 (seed 0xdeadbeef)" -- everything a rerun needs.
std::string round_tag(int round, std::uint64_t seed) {
  std::ostringstream out;
  out << "round " << round << " (seed 0x" << std::hex << seed << ")";
  return out.str();
}

/// A random complete DFA with 1..10 states over exactly `alphabet`.
Dfa random_dfa_over(std::mt19937_64& rng, std::vector<Symbol> alphabet) {
  const std::size_t k = alphabet.size();
  const std::size_t n = 1 + rng() % 10;
  Dfa dfa(n, std::move(alphabet));
  for (StateId s = 0; s < n; ++s) {
    dfa.set_accepting(s, rng() % 3 == 0);
    for (std::size_t letter = 0; letter < k; ++letter) {
      dfa.set_transition(s, letter, static_cast<StateId>(rng() % n));
    }
  }
  dfa.set_initial(static_cast<StateId>(rng() % n));
  return dfa;
}

/// A random complete DFA with 1..10 states over a subset of `letters`.
Dfa random_dfa(std::mt19937_64& rng, const std::vector<Symbol>& letters) {
  const std::size_t k = 1 + rng() % letters.size();
  return random_dfa_over(
      rng, std::vector<Symbol>(letters.begin(), letters.begin() + k));
}

/// random_dfa plus a planted dead sink: one more state, rejecting and
/// absorbing, that about a quarter of the other transitions lead into.
Dfa random_dfa_with_sink(std::mt19937_64& rng,
                         const std::vector<Symbol>& letters) {
  const Dfa base = random_dfa(rng, letters);
  const std::size_t n = base.state_count();
  const std::size_t k = base.alphabet().size();
  const auto sink = static_cast<StateId>(n);
  Dfa dfa(n + 1, base.alphabet());
  for (StateId s = 0; s < n; ++s) {
    dfa.set_accepting(s, base.is_accepting(s));
    for (std::size_t letter = 0; letter < k; ++letter) {
      dfa.set_transition(s, letter,
                         rng() % 4 == 0 ? sink : base.transition(s, letter));
    }
  }
  for (std::size_t letter = 0; letter < k; ++letter) {
    dfa.set_transition(sink, letter, sink);
  }
  dfa.set_initial(base.initial());
  return dfa;
}

using testing::eager_inclusion_witness;

class FsmProps : public ::testing::Test {
 protected:
  FsmProps() {
    for (const char* name : {"a", "b", "c"}) {
      letters_.push_back(table_.intern(name));
    }
  }

  SymbolTable table_;
  std::vector<Symbol> letters_;
};

TEST_F(FsmProps, MinimizersAgree) {
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(20230601, round);
    std::mt19937_64 rng = round_rng(seed);
    const Dfa dfa = random_dfa(rng, letters_);
    const Dfa hopcroft = minimize_hopcroft(dfa);
    const Dfa moore = minimize_moore(dfa);
    const Dfa brzozowski = minimize_brzozowski(dfa);
    EXPECT_EQ(hopcroft.state_count(), moore.state_count())
        << round_tag(round, seed);
    EXPECT_EQ(hopcroft.state_count(), brzozowski.state_count())
        << round_tag(round, seed);
    EXPECT_TRUE(equivalent(hopcroft, dfa)) << round_tag(round, seed);
    EXPECT_TRUE(equivalent(hopcroft, moore)) << round_tag(round, seed);
    EXPECT_TRUE(equivalent(hopcroft, brzozowski)) << round_tag(round, seed);
  }
}

TEST_F(FsmProps, LazyInclusionMatchesEagerWitnessExactly) {
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(20230602, round);
    std::mt19937_64 rng = round_rng(seed);
    const Dfa a = random_dfa(rng, letters_);
    const Dfa b = random_dfa(rng, letters_);
    const auto lazy = inclusion_witness(a, b);
    const auto eager = eager_inclusion_witness(a, b);
    ASSERT_EQ(lazy.has_value(), eager.has_value()) << round_tag(round, seed);
    if (lazy) {
      EXPECT_EQ(*lazy, *eager)
          << round_tag(round, seed) << ": lazy ["
          << testing::str(*lazy, table_) << "] vs eager ["
          << testing::str(*eager, table_) << "]";
    }
  }
}

TEST_F(FsmProps, UnionFindEquivalenceMatchesEagerInclusion) {
  int equivalent_pairs = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(20230603, round);
    std::mt19937_64 rng = round_rng(seed);
    const Dfa a = random_dfa(rng, letters_);
    // Half the rounds compare against a minimized copy of `a` (guaranteed
    // equivalent, exercising the "true" path); the rest against an
    // independent automaton (almost always inequivalent).
    const Dfa b = round % 2 == 0 ? minimize(a) : random_dfa(rng, letters_);
    const bool reference = !eager_inclusion_witness(a, b).has_value() &&
                           !eager_inclusion_witness(b, a).has_value();
    EXPECT_EQ(equivalent(a, b), reference) << round_tag(round, seed);
    if (reference) ++equivalent_pairs;
  }
  // The generator must exercise both outcomes.
  EXPECT_GE(equivalent_pairs, kRounds / 2);
}

TEST_F(FsmProps, ProjectedInclusionMatchesEagerIgnoreMonitorWitnessExactly) {
  std::vector<Symbol> system_letters = letters_;
  system_letters.push_back(table_.intern("d"));
  const std::vector<Symbol> foreign = {table_.intern("x"),
                                       table_.intern("y")};
  int witnesses = 0;
  int included_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = round_seed(20230604, round);
    std::mt19937_64 rng = round_rng(seed);
    const Dfa system = random_dfa_with_sink(rng, system_letters);
    // The usage omits at least one system letter (which it must ignore)
    // and reads at least one letter the system never produces.
    const std::vector<Symbol>& sigma = system.alphabet();
    const std::size_t omitted = rng() % sigma.size();
    std::vector<Symbol> usage_letters;
    for (std::size_t i = 0; i < sigma.size(); ++i) {
      if (i != omitted && rng() % 2 == 0) usage_letters.push_back(sigma[i]);
    }
    const std::size_t first_foreign = usage_letters.size();
    for (Symbol letter : foreign) {
      if (rng() % 2 == 0) usage_letters.push_back(letter);
    }
    if (usage_letters.size() == first_foreign) {
      usage_letters.push_back(foreign[rng() % foreign.size()]);
    }
    std::sort(usage_letters.begin(), usage_letters.end());
    const Dfa usage = random_dfa_over(rng, usage_letters);

    const LiveRows rows(system);
    const auto projected = projected_inclusion_witness(rows, usage);
    const auto eager = eager_inclusion_witness(
        system, extend_alphabet_ignore(usage, system.alphabet()));
    ASSERT_EQ(projected.has_value(), eager.has_value())
        << round_tag(round, seed);
    if (projected) {
      ++witnesses;
      EXPECT_EQ(*projected, *eager)
          << round_tag(round, seed) << ": projected ["
          << testing::str(*projected, table_) << "] vs eager ["
          << testing::str(*eager, table_) << "]";
    } else {
      ++included_rounds;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GE(witnesses, kRounds / 10);
  EXPECT_GE(included_rounds, kRounds / 10);
}

}  // namespace
}  // namespace shelley::fsm
