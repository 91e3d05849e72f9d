#include "fsm/dfa.hpp"

#include <gtest/gtest.h>

#include "fsm/ops.hpp"
#include "fsm/thompson.hpp"
#include "rex/derivative.hpp"
#include "rex/parser.hpp"
#include "support/guard.hpp"

namespace shelley::fsm {
namespace {

class DfaTest : public ::testing::Test {
 protected:
  rex::Regex parse_(const char* text) { return rex::parse(text, table_); }
  Dfa dfa_of_(const char* text) {
    return determinize(from_regex(parse_(text)));
  }
  Word word_(std::initializer_list<const char*> names) {
    Word out;
    for (const char* name : names) out.push_back(table_.intern(name));
    return out;
  }
  SymbolTable table_;
};

TEST_F(DfaTest, ConstructorValidatesAlphabet) {
  SymbolTable t;
  const Symbol a = t.intern("a");
  EXPECT_THROW(Dfa(0, {a}), std::invalid_argument);
  const Dfa dfa(1, {a});
  EXPECT_EQ(dfa.state_count(), 1u);
  EXPECT_EQ(dfa.alphabet().size(), 1u);
}

TEST_F(DfaTest, FromTableBuildsAndValidates) {
  const Symbol a = table_.intern("a");
  const Symbol b = table_.intern("b");
  std::vector<Symbol> sigma{a, b};
  std::sort(sigma.begin(), sigma.end());
  // Two states over two letters: flip state on the first letter, stay on
  // the second; only state 1 accepts.
  const Dfa dfa =
      Dfa::from_table(sigma, {1, 0, 0, 1}, {false, true}, 0);
  EXPECT_EQ(dfa.state_count(), 2u);
  EXPECT_EQ(dfa.initial(), 0u);
  EXPECT_TRUE(dfa.is_accepting(1));
  EXPECT_EQ(dfa.transition(0, 0), 1u);
  EXPECT_EQ(dfa.transition(1, 1), 1u);

  EXPECT_THROW(Dfa::from_table(sigma, {1, 0, 0}, {false, true}, 0),
               std::invalid_argument);  // table size mismatch
  EXPECT_THROW(Dfa::from_table(sigma, {1, 0, 0, 2}, {false, true}, 0),
               std::out_of_range);  // target out of range
  EXPECT_THROW(Dfa::from_table(sigma, {1, 0, 0, 1}, {false, true}, 2),
               std::out_of_range);  // initial out of range
}

TEST_F(DfaTest, LetterIndexBinarySearch) {
  const Symbol a = table_.intern("a");
  const Symbol b = table_.intern("b");
  const Symbol c = table_.intern("c");
  std::vector<Symbol> sigma{a, b, c};
  std::sort(sigma.begin(), sigma.end());
  const Dfa dfa(1, sigma);
  EXPECT_TRUE(dfa.letter_index(a).has_value());
  EXPECT_TRUE(dfa.letter_index(c).has_value());
  EXPECT_FALSE(dfa.letter_index(table_.intern("zz")).has_value());
}

TEST_F(DfaTest, DeterminizePreservesLanguage) {
  const char* cases[] = {"a b",        "a + b",  "(a b)* c", "a* b*",
                         "(a + b)* a", "a (b + eps)", "(a (b void + c))*"};
  for (const char* text : cases) {
    const rex::Regex r = parse_(text);
    const Dfa dfa = determinize(from_regex(r));
    for (const Word& w : rex::enumerate_language(r, 5)) {
      EXPECT_TRUE(dfa.accepts(w)) << text;
    }
    // And some negatives: every word of the complement up to length 3.
    const std::set<Symbol> sigma_set = rex::alphabet(r);
    std::vector<Word> words{{}};
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i].size() >= 3) continue;
      for (Symbol s : sigma_set) {
        Word w = words[i];
        w.push_back(s);
        words.push_back(std::move(w));
      }
    }
    for (const Word& w : words) {
      EXPECT_EQ(dfa.accepts(w), rex::matches(r, w)) << text;
    }
  }
}

TEST_F(DfaTest, DeterminizeRejectsSymbolsOutsideAlphabet) {
  const Dfa dfa = dfa_of_("a");
  EXPECT_FALSE(dfa.accepts(word_({"zz"})));
  EXPECT_FALSE(dfa.run(word_({"zz"})).has_value());
}

TEST_F(DfaTest, DeterminizeOverLargerAlphabetAddsSink) {
  const rex::Regex r = parse_("a");
  const Symbol b = table_.intern("b");
  Nfa nfa = from_regex(r);
  const Dfa dfa = determinize(nfa, {table_.intern("a"), b});
  EXPECT_TRUE(dfa.accepts(word_({"a"})));
  EXPECT_FALSE(dfa.accepts(word_({"b"})));
  EXPECT_FALSE(dfa.accepts(word_({"a", "b"})));
}

TEST_F(DfaTest, DeterminizeThrowsWhenAlphabetTooSmall) {
  Nfa nfa = from_regex(parse_("a b"));
  EXPECT_THROW(determinize(nfa, {table_.intern("a")}),
               std::invalid_argument);
}

TEST_F(DfaTest, MinimizeReachesKnownMinimalSizes) {
  // L = words over {a} with length divisible by 3: minimal DFA has 3 states.
  const Dfa dfa = minimize(dfa_of_("(a a a)*"));
  EXPECT_EQ(dfa.state_count(), 3u);

  // a* needs exactly 1 state.
  EXPECT_EQ(minimize(dfa_of_("a*")).state_count(), 1u);
}

TEST_F(DfaTest, MinimizePreservesLanguage) {
  const char* cases[] = {"(a b)* c", "a* b*", "(a + b)* a b", "a (b + eps)"};
  for (const char* text : cases) {
    const Dfa full = dfa_of_(text);
    const Dfa minimal = minimize(full);
    EXPECT_LE(minimal.state_count(), full.state_count()) << text;
    EXPECT_TRUE(equivalent(full, minimal)) << text;
  }
}

TEST_F(DfaTest, MinimizeIsIdempotent) {
  const Dfa once = minimize(dfa_of_("(a + b)* a b"));
  const Dfa twice = minimize(once);
  EXPECT_EQ(once.state_count(), twice.state_count());
}

TEST_F(DfaTest, ProductIntersection) {
  // (a+b)* a  ∩  a (a+b)*  =  words starting and ending with a.
  const Dfa lhs = extend_alphabet(dfa_of_("(a + b)* a"),
                                  {table_.intern("a"), table_.intern("b")});
  const Dfa rhs = extend_alphabet(dfa_of_("a (a + b)*"),
                                  {table_.intern("a"), table_.intern("b")});
  const Dfa both = product(lhs, rhs, ProductMode::kIntersection);
  EXPECT_TRUE(both.accepts(word_({"a"})));
  EXPECT_TRUE(both.accepts(word_({"a", "b", "a"})));
  EXPECT_FALSE(both.accepts(word_({"a", "b"})));
  EXPECT_FALSE(both.accepts(word_({"b", "a"})));
}

TEST_F(DfaTest, ProductUnionAndDifference) {
  const std::vector<Symbol> sigma{table_.intern("a"), table_.intern("b")};
  const Dfa lhs = extend_alphabet(dfa_of_("a"), sigma);
  const Dfa rhs = extend_alphabet(dfa_of_("b"), sigma);
  const Dfa either = product(lhs, rhs, ProductMode::kUnion);
  EXPECT_TRUE(either.accepts(word_({"a"})));
  EXPECT_TRUE(either.accepts(word_({"b"})));
  EXPECT_FALSE(either.accepts({}));

  const Dfa diff = product(either, rhs, ProductMode::kDifference);
  EXPECT_TRUE(diff.accepts(word_({"a"})));
  EXPECT_FALSE(diff.accepts(word_({"b"})));
}

TEST_F(DfaTest, ProductRequiresMatchingAlphabets) {
  const Dfa lhs = dfa_of_("a");
  const Dfa rhs = dfa_of_("b");
  EXPECT_THROW(product(lhs, rhs, ProductMode::kIntersection),
               std::invalid_argument);
}

TEST_F(DfaTest, ComplementFlipsMembership) {
  const Dfa dfa = dfa_of_("(a b)*");
  const Dfa comp = complement(dfa);
  EXPECT_FALSE(comp.accepts({}));
  EXPECT_FALSE(comp.accepts(word_({"a", "b"})));
  EXPECT_TRUE(comp.accepts(word_({"a"})));
  EXPECT_TRUE(comp.accepts(word_({"b", "a"})));
}

TEST_F(DfaTest, EmptinessAndShortestWord) {
  EXPECT_TRUE(is_empty(determinize(from_regex(rex::empty()),
                                   {table_.intern("a")})));
  const Dfa dfa = dfa_of_("a a (b + a)");
  const auto shortest = shortest_word(dfa);
  ASSERT_TRUE(shortest.has_value());
  EXPECT_EQ(shortest->size(), 3u);

  const Dfa eps = determinize(from_regex(rex::epsilon()),
                              {table_.intern("a")});
  const auto empty_word = shortest_word(eps);
  ASSERT_TRUE(empty_word.has_value());
  EXPECT_TRUE(empty_word->empty());
}

TEST_F(DfaTest, InclusionWitnessIsShortestAndCorrect) {
  const Dfa lhs = dfa_of_("a* ");
  const Dfa rhs = dfa_of_("a a*");
  const auto witness = inclusion_witness(lhs, rhs);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->empty());  // ε ∈ a* \ a·a*
  EXPECT_FALSE(inclusion_witness(rhs, lhs).has_value());
  EXPECT_TRUE(included(rhs, lhs));
  EXPECT_FALSE(included(lhs, rhs));
}

TEST_F(DfaTest, InclusionHonoursTheStateBudget) {
  // a^i for i = 0 (mod 8) against a^i for i != 3 (mod 7): 8 and 7 states,
  // but the search walks the pairs (i mod 8, i mod 7) up to i = 24, the
  // first count in the left language and outside the right one.
  const Symbol a = table_.intern("a");
  Dfa lhs(8, {a});
  for (StateId s = 0; s < 8; ++s) lhs.set_transition(s, 0, (s + 1) % 8);
  lhs.set_accepting(0, true);
  Dfa rhs(7, {a});
  for (StateId s = 0; s < 7; ++s) {
    rhs.set_transition(s, 0, (s + 1) % 7);
    rhs.set_accepting(s, s != 3);
  }
  const Word expected(24, a);
  EXPECT_EQ(inclusion_witness(lhs, rhs), expected);

  {
    support::guard::Limits strict;
    strict.max_states = 8;
    const support::guard::ScopedLimits scoped(strict);
    try {
      (void)inclusion_witness(lhs, rhs);
      FAIL() << "expected ResourceError";
    } catch (const support::guard::ResourceError& error) {
      EXPECT_EQ(error.resource(), support::guard::Resource::kStateBudget);
      EXPECT_NE(std::string(error.what()).find("inclusion"),
                std::string::npos);
    }
  }
  EXPECT_EQ(inclusion_witness(lhs, rhs), expected);
}

TEST_F(DfaTest, EquivalenceJoinsAlphabets) {
  // a over {a} vs a over {a, b}: same language.
  const Dfa small = dfa_of_("a");
  const Dfa big = extend_alphabet(small, {table_.intern("b")});
  EXPECT_TRUE(equivalent(small, big));
}

TEST_F(DfaTest, ExtendAlphabetRejectingSink) {
  const Dfa dfa = extend_alphabet(dfa_of_("a*"), {table_.intern("x")});
  EXPECT_TRUE(dfa.accepts(word_({"a", "a"})));
  EXPECT_FALSE(dfa.accepts(word_({"x"})));
  EXPECT_FALSE(dfa.accepts(word_({"a", "x", "a"})));
}

TEST_F(DfaTest, ExtendAlphabetIgnoreSelfLoops) {
  const Dfa dfa = extend_alphabet_ignore(dfa_of_("a b"),
                                         {table_.intern("x")});
  EXPECT_TRUE(dfa.accepts(word_({"a", "b"})));
  EXPECT_TRUE(dfa.accepts(word_({"x", "a", "x", "b", "x"})));
  EXPECT_FALSE(dfa.accepts(word_({"a", "x", "a"})));
}

TEST_F(DfaTest, LiveStates) {
  const Dfa dfa = dfa_of_("a b");
  const auto live = live_states(dfa);
  // Initial state must be live (the language is non-empty); the sink is not.
  EXPECT_TRUE(live[dfa.initial()]);
  std::size_t dead = 0;
  for (StateId s = 0; s < dfa.state_count(); ++s) {
    if (!live[s]) ++dead;
  }
  EXPECT_GE(dead, 1u);  // the rejecting sink
}

TEST_F(DfaTest, MapLabelsRenames) {
  Nfa nfa = from_regex(parse_("a b"));
  const Symbol x = table_.intern("x");
  const Symbol a = table_.intern("a");
  const Nfa renamed = map_labels(nfa, [&](Symbol s) {
    return s == a ? x : s;
  });
  EXPECT_TRUE(renamed.accepts(word_({"x", "b"})));
  EXPECT_FALSE(renamed.accepts(word_({"a", "b"})));
}

TEST_F(DfaTest, MapLabelsErasesToEpsilon) {
  Nfa nfa = from_regex(parse_("a b a"));
  const Symbol a = table_.intern("a");
  const Nfa projected = map_labels(nfa, [&](Symbol s) {
    return s == a ? Symbol{} : s;  // erase all a's
  });
  EXPECT_TRUE(projected.accepts(word_({"b"})));
  EXPECT_FALSE(projected.accepts(word_({"a", "b", "a"})));
  EXPECT_FALSE(projected.accepts({}));
}

TEST_F(DfaTest, ToNfaRoundTrip) {
  const Dfa dfa = dfa_of_("(a + b)* a");
  const Dfa back = determinize(to_nfa(dfa));
  EXPECT_TRUE(equivalent(dfa, back));
}

TEST_F(DfaTest, ReachableCount) {
  const Dfa dfa = dfa_of_("a");
  EXPECT_EQ(reachable_count(dfa), dfa.state_count());
}

}  // namespace
}  // namespace shelley::fsm
