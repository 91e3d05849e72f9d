// The headline differential suite of the dual-engine design: thousands of
// seeded random (formula, NFA) pairs answered by BOTH the on-the-fly
// tableau (ltlf/tableau.hpp) and the progression-DFA oracle
// (ltlf/automaton.hpp).  The engines must agree verdict for verdict AND
// witness for witness -- both perform the same lex-least-shortest BFS --
// and every counterexample is re-validated independently by NFA simulation
// plus the reference evaluator, so an agreeing-but-wrong pair of engines
// cannot slip through.
//
// Also here: the print→parse round-trip property for random formulas (the
// printer's precedence table must mirror the parser's ladder exactly), and
// the exactness of to_dfa's letter classes against the per-letter
// construction it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "fsm/ops.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/eval.hpp"
#include "ltlf/parser.hpp"
#include "ltlf/tableau.hpp"
#include "props/ltlf_gen.hpp"

namespace shelley::ltlf {
namespace {

// Mirrors the splitmix64 round-seed idiom of fsm_props_test: every round of
// every seed gets an independent, reproducible stream.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + round;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// -- Print→parse round trip -------------------------------------------------

class LtlfRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LtlfRoundTrip, PrintedFormulaReparsesStructurallyEqual) {
  SymbolTable table;
  const auto atoms = shelley::testing::ltlf_atoms(table, 4);
  for (int round = 0; round < 40; ++round) {
    std::mt19937_64 rng(
        round_seed(static_cast<std::uint64_t>(GetParam()), round));
    const Formula f = shelley::testing::random_formula(rng, atoms, 4);
    const std::string printed = to_string(f, table);
    Formula reparsed;
    ASSERT_NO_THROW(reparsed = parse(printed, table)) << printed;
    EXPECT_TRUE(structurally_equal(f, reparsed))
        << "printed: " << printed
        << "\nreparsed: " << to_string(reparsed, table);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlfRoundTrip, ::testing::Range(0, 25));

// -- Tableau vs DFA-oracle differential -------------------------------------

constexpr int kPairsPerSeed = 110;
constexpr int kSeeds = 50;  // 50 * 110 = 5500 pairs ≥ the 5000 floor

class LtlfEngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(LtlfEngineDifferential, EnginesAgreeOnRandomPairs) {
  SymbolTable table;
  const auto atoms = shelley::testing::ltlf_atoms(table, 3);
  // The system also speaks a letter no formula mentions (and formulas may
  // mention p2 while the NFA alphabet varies through it), so the joined
  // alphabets genuinely differ between system and claim.
  const Symbol extra = table.intern("evt");
  std::vector<Symbol> alphabet(atoms.begin(), atoms.end());
  alphabet.push_back(extra);

  int violations = 0;
  int holds = 0;
  for (int round = 0; round < kPairsPerSeed; ++round) {
    std::mt19937_64 rng(
        round_seed(static_cast<std::uint64_t>(GetParam()), round));
    const fsm::Nfa nfa =
        shelley::testing::random_nfa(rng, alphabet, 5);
    const Formula f = shelley::testing::random_formula(rng, atoms, 3);
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " round " +
                 std::to_string(round) + ": " + to_string(f, table));

    const TableauResult tableau = check_tableau(nfa, alphabet, f);
    ASSERT_NE(tableau.verdict, TableauVerdict::kLimited);
    const auto witness = counterexample(
        fsm::minimize(fsm::determinize(nfa, alphabet)), f);

    if (tableau.verdict == TableauVerdict::kHolds) {
      EXPECT_FALSE(witness.has_value())
          << "oracle witness: " << to_string(*witness, table);
      ++holds;
      continue;
    }
    ++violations;
    ASSERT_TRUE(witness.has_value());
    // Identical witnesses, then independent validation of the shared word:
    // it must be a word of the system language that the reference
    // evaluator rejects.
    EXPECT_EQ(tableau.counterexample, *witness)
        << "tableau: " << to_string(tableau.counterexample, table)
        << "\noracle:  " << to_string(*witness, table);
    EXPECT_TRUE(nfa.accepts(tableau.counterexample));
    EXPECT_FALSE(eval(f, tableau.counterexample));
  }
  // A sweep where one verdict never occurs is a broken generator, not a
  // passing differential.
  EXPECT_GT(violations, 0);
  EXPECT_GT(holds, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlfEngineDifferential,
                         ::testing::Range(0, kSeeds));

// -- Letter classes: to_dfa is the per-letter construction, state for state --

/// The construction to_dfa ran before letter classes: every row progresses
/// the state once per letter of the alphabet.  Kept as the oracle that the
/// class construction builds the identical DFA, not just an equivalent one.
fsm::Dfa per_letter_to_dfa(const Formula& formula,
                           std::vector<Symbol> alphabet) {
  const Formula rewritten = simplify(formula);
  for (Symbol s : atoms(rewritten)) alphabet.push_back(s);
  std::sort(alphabet.begin(), alphabet.end());
  alphabet.erase(std::unique(alphabet.begin(), alphabet.end()),
                 alphabet.end());
  struct FormulaLess {
    bool operator()(const Formula& a, const Formula& b) const {
      return structural_compare(a, b) < 0;
    }
  };
  std::map<Formula, fsm::StateId, FormulaLess> ids;
  std::vector<Formula> states;
  const auto get_id = [&](const Formula& f) {
    const auto [it, inserted] =
        ids.emplace(f, static_cast<fsm::StateId>(states.size()));
    if (inserted) states.push_back(f);
    return it->second;
  };
  const fsm::StateId start = get_id(to_dnf(rewritten));
  std::vector<std::vector<fsm::StateId>> rows;
  for (fsm::StateId current = 0; current < states.size(); ++current) {
    const Formula state = states[current];
    std::vector<fsm::StateId> row(alphabet.size(), 0);
    for (std::size_t letter = 0; letter < alphabet.size(); ++letter) {
      row[letter] = get_id(to_dnf(progress(state, alphabet[letter])));
    }
    rows.push_back(std::move(row));
  }
  fsm::Dfa dfa(states.size(), alphabet);
  dfa.set_initial(start);
  for (fsm::StateId state = 0; state < states.size(); ++state) {
    dfa.set_accepting(state, eval_empty(states[state]));
    for (std::size_t letter = 0; letter < alphabet.size(); ++letter) {
      dfa.set_transition(state, letter, rows[state][letter]);
    }
  }
  return dfa;
}

constexpr int kClassRoundsPerSeed = 120;
constexpr int kClassSeeds = 10;  // 10 * 120 = 1200 rounds

class LtlfLetterClasses : public ::testing::TestWithParam<int> {};

TEST_P(LtlfLetterClasses, ToDfaEqualsThePerLetterConstruction) {
  SymbolTable table;
  const auto atom_pool = shelley::testing::ltlf_atoms(table, 4);
  std::vector<Symbol> letter_pool;  // letters no formula mentions
  for (int i = 0; i < 12; ++i) {
    letter_pool.push_back(table.intern("e" + std::to_string(i)));
  }

  int atoms_not_letters = 0;
  int letters_not_atoms = 0;
  int atoms_only = 0;
  for (int round = 0; round < kClassRoundsPerSeed; ++round) {
    std::mt19937_64 rng(
        round_seed(static_cast<std::uint64_t>(GetParam()), round));
    const Formula f = shelley::testing::random_formula(rng, atom_pool, 3);
    const std::set<Symbol> formula_atoms = atoms(simplify(f));

    // A random share of the atoms plus a random number of other letters;
    // every fourth round, exactly the formula's atoms, so the class of
    // other letters is empty.
    std::vector<Symbol> alphabet;
    if (round % 4 == 0) {
      alphabet.assign(formula_atoms.begin(), formula_atoms.end());
    } else {
      for (Symbol a : atom_pool) {
        if (rng() % 2 == 0) alphabet.push_back(a);
      }
      const std::size_t extra = rng() % (letter_pool.size() + 1);
      for (std::size_t i = 0; i < extra; ++i) {
        alphabet.push_back(letter_pool[rng() % letter_pool.size()]);
      }
      std::shuffle(alphabet.begin(), alphabet.end(), rng);
    }
    const std::set<Symbol> letters(alphabet.begin(), alphabet.end());
    if (std::any_of(formula_atoms.begin(), formula_atoms.end(),
                    [&](Symbol a) { return !letters.contains(a); })) {
      ++atoms_not_letters;
    }
    if (std::any_of(letters.begin(), letters.end(),
                    [&](Symbol a) { return !formula_atoms.contains(a); })) {
      ++letters_not_atoms;
    } else {
      ++atoms_only;
    }

    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " round " +
                 std::to_string(round) + ": " + to_string(f, table));
    const fsm::Dfa oracle = per_letter_to_dfa(f, alphabet);
    const fsm::Dfa dfa = to_dfa(f, alphabet);
    ASSERT_EQ(dfa.state_count(), oracle.state_count());
    ASSERT_EQ(dfa.alphabet(), oracle.alphabet());
    EXPECT_EQ(dfa.initial(), oracle.initial());
    for (fsm::StateId s = 0; s < dfa.state_count(); ++s) {
      EXPECT_EQ(dfa.is_accepting(s), oracle.is_accepting(s)) << "state " << s;
      for (std::size_t letter = 0; letter < dfa.alphabet().size(); ++letter) {
        EXPECT_EQ(dfa.transition(s, letter), oracle.transition(s, letter))
            << "state " << s << " letter " << letter;
      }
    }
  }
  // Every alphabet shape the classes distinguish must occur.
  EXPECT_GT(atoms_not_letters, 0);
  EXPECT_GT(letters_not_atoms, 0);
  EXPECT_GT(atoms_only, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlfLetterClasses,
                         ::testing::Range(0, kClassSeeds));

}  // namespace
}  // namespace shelley::ltlf
