// The flat automata kernel's storage layer: CSR transition views, the
// packed ε-closure table, accepting bitmaps, and the word-parallel StateSet
// sweeps they feed.  These pin the layout invariants docs/KERNEL.md states
// (sorted runs, self bits, cache invalidation on mutation) independently of
// the algorithms in ops.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fsm/nfa.hpp"
#include "fsm/ops.hpp"
#include "fsm/state_set.hpp"

namespace shelley::fsm {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  SymbolTable table_;
  Symbol a_ = table_.intern("a");
  Symbol b_ = table_.intern("b");
  Symbol c_ = table_.intern("c");
};

TEST_F(KernelTest, SymbolCsrRunsAreSortedBySymbol) {
  Nfa nfa;
  nfa.add_states(3);
  // Insert out of symbol order on purpose.
  nfa.add_transition(0, c_, 2);
  nfa.add_transition(0, a_, 1);
  nfa.add_transition(0, b_, 0);
  nfa.add_transition(2, a_, 0);

  const Nfa::SymbolCsr csr = nfa.symbol_csr();
  ASSERT_EQ(csr.offsets[0], 0u);
  ASSERT_EQ(csr.offsets[1], 3u);  // state 0 has three edges
  ASSERT_EQ(csr.offsets[2], 3u);  // state 1 has none
  ASSERT_EQ(csr.offsets[3], 4u);
  EXPECT_TRUE(std::is_sorted(csr.symbols, csr.symbols + 3));
  EXPECT_EQ(csr.symbols[0], a_);
  EXPECT_EQ(csr.targets[0], 1u);
  EXPECT_EQ(csr.symbols[1], b_);
  EXPECT_EQ(csr.targets[1], 0u);
  EXPECT_EQ(csr.symbols[2], c_);
  EXPECT_EQ(csr.targets[2], 2u);
  EXPECT_EQ(csr.symbols[3], a_);
  EXPECT_EQ(csr.targets[3], 0u);
}

TEST_F(KernelTest, SymbolCsrDuplicateSymbolsKeepInsertionOrder) {
  Nfa nfa;
  nfa.add_states(4);
  nfa.add_transition(0, a_, 3);
  nfa.add_transition(0, a_, 1);
  nfa.add_transition(0, a_, 2);
  const Nfa::SymbolCsr csr = nfa.symbol_csr();
  // The per-run sort is stable: equal symbols keep the order they were
  // added in, which is what keeps determinization byte-reproducible.
  EXPECT_EQ(csr.targets[0], 3u);
  EXPECT_EQ(csr.targets[1], 1u);
  EXPECT_EQ(csr.targets[2], 2u);
}

TEST_F(KernelTest, EpsilonEdgesLiveInTheirOwnCsr) {
  Nfa nfa;
  nfa.add_states(3);
  nfa.add_transition(0, a_, 1);
  nfa.add_epsilon(0, 2);
  nfa.add_epsilon(1, 0);

  const Nfa::SymbolCsr sym = nfa.symbol_csr();
  const Nfa::EpsilonCsr eps = nfa.epsilon_csr();
  EXPECT_EQ(sym.offsets[3], 1u);  // only the labelled edge
  EXPECT_EQ(eps.offsets[3], 2u);  // both ε edges
  EXPECT_EQ(eps.targets[eps.offsets[0]], 2u);
  EXPECT_EQ(eps.targets[eps.offsets[1]], 0u);
}

TEST_F(KernelTest, ClosureTableSetsSelfBits) {
  Nfa nfa;
  nfa.add_states(70);  // spans two uint64 words
  const Nfa::ClosureTable closures = nfa.closures();
  ASSERT_EQ(closures.stride, 2u);
  for (StateId s = 0; s < 70; ++s) {
    const std::uint64_t* row = closures.row(s);
    EXPECT_EQ((row[s / 64] >> (s % 64)) & 1, 1u) << "state " << s;
  }
}

TEST_F(KernelTest, ClosureTableIsTransitiveAcrossWordBoundaries) {
  Nfa nfa;
  nfa.add_states(130);  // three words per row
  // A chain of ε edges crossing both word boundaries: 0 -> 63 -> 64 -> 129.
  nfa.add_epsilon(0, 63);
  nfa.add_epsilon(63, 64);
  nfa.add_epsilon(64, 129);
  const Nfa::ClosureTable closures = nfa.closures();
  const std::uint64_t* row = closures.row(0);
  for (StateId t : {0u, 63u, 64u, 129u}) {
    EXPECT_EQ((row[t / 64] >> (t % 64)) & 1, 1u) << "missing " << t;
  }
  // And nothing else.
  std::size_t bits = 0;
  for (std::size_t w = 0; w < closures.stride; ++w) {
    bits += static_cast<std::size_t>(__builtin_popcountll(row[w]));
  }
  EXPECT_EQ(bits, 4u);
}

TEST_F(KernelTest, ClosureHandlesEpsilonCyclesBackwardEdges) {
  Nfa nfa;
  nfa.add_states(5);
  // Backward ε edges force the fixpoint sweep to iterate.
  nfa.add_epsilon(4, 3);
  nfa.add_epsilon(3, 2);
  nfa.add_epsilon(2, 1);
  nfa.add_epsilon(1, 0);
  nfa.add_epsilon(0, 4);  // close the cycle
  const Nfa::ClosureTable closures = nfa.closures();
  for (StateId s = 0; s < 5; ++s) {
    EXPECT_EQ(closures.row(s)[0] & 0x1F, 0x1Fu) << "state " << s;
  }
}

TEST_F(KernelTest, AcceptingWordsMatchAcceptingStates) {
  Nfa nfa;
  nfa.add_states(100);
  for (StateId s : {0u, 63u, 64u, 99u}) nfa.mark_accepting(s);
  const std::uint64_t* words = nfa.accepting_words();
  for (StateId s = 0; s < 100; ++s) {
    const bool bit = (words[s / 64] >> (s % 64)) & 1;
    EXPECT_EQ(bit, nfa.is_accepting(s)) << "state " << s;
  }
}

TEST_F(KernelTest, MutationInvalidatesCachedViews) {
  Nfa nfa;
  nfa.add_states(2);
  nfa.add_transition(0, a_, 1);
  const Nfa::SymbolCsr before = nfa.symbol_csr();
  EXPECT_EQ(before.offsets[2], 1u);
  EXPECT_EQ(nfa.alphabet().size(), 1u);

  nfa.add_transition(1, b_, 0);
  const Nfa::SymbolCsr after = nfa.symbol_csr();
  EXPECT_EQ(after.offsets[2], 2u);
  EXPECT_EQ(nfa.alphabet().size(), 2u);

  nfa.add_epsilon(1, 0);
  const Nfa::ClosureTable closures = nfa.closures();
  EXPECT_EQ((closures.row(1)[0] >> 0) & 1, 1u);  // 0 ∈ closure(1)
}

TEST_F(KernelTest, StateSetUniteRowIsWordParallel) {
  StateSet set(128);
  set.insert(3);
  const std::uint64_t row[2] = {std::uint64_t{1} << 40,
                                std::uint64_t{1} << 1};  // states 40, 65
  EXPECT_TRUE(set.unite_row(row));
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(40));
  EXPECT_TRUE(set.contains(65));
  EXPECT_EQ(set.count(), 3u);
  // A second union with the same row changes nothing.
  EXPECT_FALSE(set.unite_row(row));
}

TEST_F(KernelTest, BitsetClosureAgreesWithSetClosure) {
  Nfa nfa;
  nfa.add_states(80);
  for (StateId s = 0; s + 1 < 80; s += 2) nfa.add_epsilon(s, s + 1);
  nfa.add_epsilon(1, 70);

  StateSet seed(nfa.state_count());
  seed.insert(0);
  const StateSet closed = nfa.epsilon_closure(seed);
  const std::set<StateId> reference =
      nfa.epsilon_closure(std::set<StateId>{0});
  std::set<StateId> flat;
  closed.for_each([&](StateId s) { flat.insert(s); });
  EXPECT_EQ(flat, reference);
}

TEST_F(KernelTest, StepAgreesAcrossRepresentations) {
  Nfa nfa;
  nfa.add_states(70);
  nfa.add_transition(0, a_, 65);
  nfa.add_transition(0, b_, 1);
  nfa.add_transition(65, a_, 0);

  StateSet from(nfa.state_count());
  from.insert(0);
  from.insert(65);
  const StateSet stepped = nfa.step(from, a_);
  std::set<StateId> flat;
  stepped.for_each([&](StateId s) { flat.insert(s); });
  EXPECT_EQ(flat, (std::set<StateId>{0, 65}));
  EXPECT_EQ(nfa.step(std::set<StateId>{0, 65}, a_),
            (std::set<StateId>{0, 65}));
}

TEST_F(KernelTest, DeterminizeOverWideAutomatonMatchesSimulation) {
  // A 3-word-wide NFA with ε edges and nondeterminism: the DFA must accept
  // exactly the words the subset simulation accepts.
  Nfa nfa;
  nfa.add_states(150);
  nfa.mark_initial(0);
  for (StateId s = 0; s < 149; ++s) {
    nfa.add_transition(s, s % 2 == 0 ? a_ : b_, s + 1);
    if (s % 7 == 0) nfa.add_epsilon(s, (s + 50) % 150);
    if (s % 11 == 0) nfa.add_transition(s, a_, (s + 3) % 150);
  }
  nfa.mark_accepting(149);
  nfa.mark_accepting(75);

  const Dfa dfa = determinize(nfa);
  const std::vector<Word> probes = {
      {}, {a_}, {a_, b_}, {a_, b_, a_}, {b_}, {a_, a_}, {a_, b_, a_, b_},
      {a_, a_, a_, b_, b_, a_}};
  for (const Word& word : probes) {
    EXPECT_EQ(dfa.accepts(word), nfa.accepts(word));
  }
}

TEST_F(KernelTest, DfaAcceptingBitmapSurvivesMinimize) {
  Nfa nfa;
  nfa.add_states(4);
  nfa.mark_initial(0);
  nfa.add_transition(0, a_, 1);
  nfa.add_transition(1, a_, 2);
  nfa.add_transition(2, a_, 3);
  nfa.add_transition(3, a_, 0);
  nfa.mark_accepting(0);
  const Dfa dfa = determinize(nfa);
  const Dfa minimal = minimize_hopcroft(dfa);
  EXPECT_EQ(minimal.accepting_count(), 1u);
  EXPECT_TRUE(minimal.accepts({a_, a_, a_, a_}));
  EXPECT_FALSE(minimal.accepts({a_}));
  // The bitmap view has exactly one bit set.
  std::size_t bits = 0;
  for (std::size_t w = 0; w < minimal.accepting_word_count(); ++w) {
    bits += static_cast<std::size_t>(
        __builtin_popcountll(minimal.accepting_words()[w]));
  }
  EXPECT_EQ(bits, 1u);
}

TEST_F(KernelTest, LiveRowsDropDeadTargetsAndKeepLettersAscending) {
  // 0 -a-> 1 (accepting), 0 -b-> 2 (rejecting sink), 0 -c-> 0;
  // 1 -a-> 0, everything else into the sink; 3 is unreachable but live.
  Dfa dfa(4, {a_, b_, c_});
  for (StateId s = 0; s < 4; ++s) {
    for (std::size_t letter = 0; letter < 3; ++letter) {
      dfa.set_transition(s, letter, 2);
    }
  }
  dfa.set_transition(0, 0, 1);
  dfa.set_transition(0, 2, 0);
  dfa.set_transition(1, 0, 0);
  dfa.set_transition(3, 1, 1);
  dfa.set_accepting(1, true);

  const LiveRows rows(dfa);
  const std::vector<bool> live = live_states(dfa);
  for (StateId s = 0; s < 4; ++s) EXPECT_EQ(rows.is_live(s), live[s]) << s;
  EXPECT_FALSE(rows.is_live(2));

  const auto run = [&](StateId s) {
    std::vector<std::pair<std::uint32_t, StateId>> out;
    for (std::uint32_t e = rows.offsets()[s]; e < rows.offsets()[s + 1];
         ++e) {
      out.emplace_back(rows.letters()[e], rows.targets()[e]);
    }
    return out;
  };
  using Run = std::vector<std::pair<std::uint32_t, StateId>>;
  EXPECT_EQ(run(0), (Run{{0, 1}, {2, 0}}));  // b into the sink is gone
  EXPECT_EQ(run(1), (Run{{0, 0}}));
  EXPECT_EQ(run(2), Run{});  // dead states have empty runs
  EXPECT_EQ(run(3), (Run{{1, 1}}));

  // The rows hold their arena storage while other kernel calls nest
  // inside them.
  (void)minimize(dfa);
  (void)inclusion_witness(dfa, dfa);
  EXPECT_EQ(run(0), (Run{{0, 1}, {2, 0}}));
  EXPECT_EQ(run(3), (Run{{1, 1}}));
}

TEST_F(KernelTest, RenameLettersResortsColumnsAndKeepsStates) {
  // Over [a, b, c]: state 0 --a--> 1 --b--> 2 (accepting); c and every
  // other cell lead to the sink 3.
  Dfa dfa(4, {a_, b_, c_});
  for (StateId s = 0; s < 4; ++s) {
    for (std::size_t letter = 0; letter < 3; ++letter) {
      dfa.set_transition(s, letter, 3);
    }
  }
  dfa.set_transition(0, 0, 1);
  dfa.set_transition(1, 1, 2);
  dfa.set_accepting(2, true);
  dfa.set_initial(0);

  // a -> c, b -> a, c -> b: the columns must be re-sorted as [a, b, c].
  const Dfa renamed = rename_letters(dfa, [&](Symbol s) {
    return s == a_ ? c_ : s == b_ ? a_ : b_;
  });
  ASSERT_EQ(renamed.alphabet(), (std::vector<Symbol>{a_, b_, c_}));
  EXPECT_EQ(renamed.state_count(), dfa.state_count());
  EXPECT_EQ(renamed.initial(), dfa.initial());
  EXPECT_EQ(renamed.transition(0, 2), 1u);  // was a
  EXPECT_EQ(renamed.transition(1, 0), 2u);  // was b
  EXPECT_EQ(renamed.transition(0, 0), 3u);
  EXPECT_TRUE(renamed.is_accepting(2));
  EXPECT_FALSE(renamed.is_accepting(3));
  EXPECT_TRUE(renamed.accepts({c_, a_}));
  EXPECT_FALSE(renamed.accepts({a_, b_}));

  EXPECT_THROW((void)rename_letters(dfa, [&](Symbol) { return a_; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace shelley::fsm
