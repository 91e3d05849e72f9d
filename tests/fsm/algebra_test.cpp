// Boolean-algebra laws of the DFA operations, checked on a corpus of
// regular languages: De Morgan, double complement, distributivity,
// inclusion antisymmetry, and consistency between product modes.
#include <gtest/gtest.h>

#include "fsm/ops.hpp"
#include "fsm/thompson.hpp"
#include "rex/parser.hpp"

namespace shelley::fsm {
namespace {

// gtest names a value-parameterized case after its printed parameter. With
// no printer, that was a byte dump of the two string pointers, which
// address-space randomization moves, so every build registered these cases
// under new names. Each pair now prints a fixed `id`: verbatim, the name it
// had in the last recorded test list, so case ids stay continuous with
// earlier results and no longer change from build to build.
struct LanguagePair {
  const char* lhs;
  const char* rhs;
  const char* id;
};

void PrintTo(const LanguagePair& pair, std::ostream* os) { *os << pair.id; }

class AlgebraTest : public ::testing::TestWithParam<LanguagePair> {
 protected:
  void SetUp() override {
    // Build both machines over the *joint* alphabet so products are legal.
    const rex::Regex left = rex::parse(GetParam().lhs, table_);
    const rex::Regex right = rex::parse(GetParam().rhs, table_);
    std::set<Symbol> sigma = rex::alphabet(left);
    const auto rhs_sigma = rex::alphabet(right);
    sigma.insert(rhs_sigma.begin(), rhs_sigma.end());
    sigma.insert(table_.intern("z"));  // a letter outside both languages
    const std::vector<Symbol> alphabet(sigma.begin(), sigma.end());
    a_ = determinize(from_regex(left), alphabet);
    b_ = determinize(from_regex(right), alphabet);
  }

  SymbolTable table_;
  std::optional<Dfa> a_;
  std::optional<Dfa> b_;
};

TEST_P(AlgebraTest, DoubleComplement) {
  EXPECT_TRUE(equivalent(complement(complement(*a_)), *a_));
}

TEST_P(AlgebraTest, DeMorgan) {
  // !(A ∪ B) = !A ∩ !B
  const Dfa lhs = complement(product(*a_, *b_, ProductMode::kUnion));
  const Dfa rhs =
      product(complement(*a_), complement(*b_), ProductMode::kIntersection);
  EXPECT_TRUE(equivalent(lhs, rhs));
}

TEST_P(AlgebraTest, DifferenceAsIntersectionWithComplement) {
  const Dfa diff = product(*a_, *b_, ProductMode::kDifference);
  const Dfa via_complement =
      product(*a_, complement(*b_), ProductMode::kIntersection);
  EXPECT_TRUE(equivalent(diff, via_complement));
}

TEST_P(AlgebraTest, UnionAbsorbsIntersection) {
  // A ∪ (A ∩ B) = A
  const Dfa inter = product(*a_, *b_, ProductMode::kIntersection);
  const Dfa absorbed = product(*a_, inter, ProductMode::kUnion);
  EXPECT_TRUE(equivalent(absorbed, *a_));
}

TEST_P(AlgebraTest, InclusionAntisymmetry) {
  if (included(*a_, *b_) && included(*b_, *a_)) {
    EXPECT_TRUE(equivalent(*a_, *b_));
  }
  // A ∩ B ⊆ A ⊆ A ∪ B  always.
  const Dfa inter = product(*a_, *b_, ProductMode::kIntersection);
  const Dfa uni = product(*a_, *b_, ProductMode::kUnion);
  EXPECT_TRUE(included(inter, *a_));
  EXPECT_TRUE(included(*a_, uni));
}

TEST_P(AlgebraTest, EmptinessOfDifferenceMatchesInclusion) {
  EXPECT_EQ(is_empty(product(*a_, *b_, ProductMode::kDifference)),
            included(*a_, *b_));
}

TEST_P(AlgebraTest, MinimizationCommutesWithComplement) {
  // minimize(!A) and !minimize(A) recognize the same language.
  EXPECT_TRUE(
      equivalent(minimize(complement(*a_)), complement(minimize(*a_))));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, AlgebraTest,
    ::testing::Values(LanguagePair{"a b", "a (b + c)",
                                   "16-byte object <F9-A5 5B-C3 49-56 00-00 "
                                   "CE-A5 5B-C3 49-56 00-00>"},
                      LanguagePair{"(a + b)*", "a*",
                                   "16-byte object <D8-A5 5B-C3 49-56 00-00 "
                                   "CB-A5 5B-C3 49-56 00-00>"},
                      LanguagePair{"(a b)* c", "a b c",
                                   "16-byte object <E1-A5 5B-C3 49-56 00-00 "
                                   "EA-A5 5B-C3 49-56 00-00>"},
                      LanguagePair{"a* b", "b + a b",
                                   "16-byte object <F0-A5 5B-C3 49-56 00-00 "
                                   "F5-A5 5B-C3 49-56 00-00>"},
                      LanguagePair{"eps", "a*",
                                   "16-byte object <FD-A5 5B-C3 49-56 00-00 "
                                   "CB-A5 5B-C3 49-56 00-00>"},
                      LanguagePair{"void", "a",
                                   "16-byte object <01-A6 5B-C3 49-56 00-00 "
                                   "0F-A6 5B-C3 49-56 00-00>"},
                      LanguagePair{"(a + b)* a", "(a + b)* b",
                                   "16-byte object <06-A6 5B-C3 49-56 00-00 "
                                   "11-A6 5B-C3 49-56 00-00>"}));

}  // namespace
}  // namespace shelley::fsm
