#include "ltlf/automaton.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "fsm/ops.hpp"
#include "ltlf/eval.hpp"
#include "support/guard.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::ltlf {

fsm::Dfa to_dfa(const Formula& formula, std::vector<Symbol> alphabet,
                std::size_t max_states) {
  support::trace::Span span("ltlf.to_dfa");
  // Global rewrites (F F φ = F φ, ...) shrink the progression state space;
  // language preservation is covered by the simplify tests.
  const Formula rewritten = simplify(formula);
  const std::set<Symbol> formula_atoms = atoms(rewritten);
  for (Symbol s : formula_atoms) alphabet.push_back(s);
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
    if (inserted) {
      states.push_back(f);
      support::guard::check_states(states.size(), "LTLf progression");
      if (states.size() > max_states) {
        throw support::guard::ResourceError(
            support::guard::Resource::kStateBudget, {},
            "ltlf::to_dfa: progression exceeded the state bound");
      }
    }
    return it->second;
  };

  // Letter classes: progress reads a letter only through `symbol() == a`,
  // and neither progress nor to_dnf introduces atoms, so every state
  // progresses alike on all letters the formula never names.  Each atom is
  // its own class; the other letters share one, progressed once per row at
  // its first letter and copied to the rest.  Progressing at that first
  // letter inserts any new successor exactly where a letter-by-letter row
  // would, so state ids, rows and budget probes match that construction
  // and the DFA is identical to it, not merely equivalent.
  std::vector<bool> is_atom(alphabet.size(), false);
  for (std::size_t letter = 0; letter < alphabet.size(); ++letter) {
    is_atom[letter] = formula_atoms.contains(alphabet[letter]);
  }

  const fsm::StateId start = get_id(to_dnf(rewritten));
  std::vector<std::vector<fsm::StateId>> rows;
  for (fsm::StateId current = 0; current < states.size(); ++current) {
    if ((current & 0xFF) == 0) support::guard::check_deadline("ltlf.to_dfa");
    const Formula state = states[current];
    std::vector<fsm::StateId> row(alphabet.size(), 0);
    std::optional<fsm::StateId> other;  // the shared class's successor
    for (std::size_t letter = 0; letter < alphabet.size(); ++letter) {
      // Each successor pays a progress + to_dnf, which on pathological
      // formulas (deep U/R nests over wide alphabets) is the expensive
      // step -- the per-state cadence above can leave 256·|Σ| of them
      // between deadline checks, so re-check inside the row too.
      if ((letter & 0xF) == 0xF) {
        support::guard::check_deadline("ltlf.to_dfa");
      }
      if (!is_atom[letter] && other) {
        row[letter] = *other;
        continue;
      }
      // DNF canonicalization is what closes the state space: progression
      // results that are logically equal become structurally equal.
      row[letter] = get_id(to_dnf(progress(state, alphabet[letter])));
      if (!is_atom[letter]) other = row[letter];
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
  support::metrics::record_ltlf_states(states.size());
  span.arg("states", static_cast<std::uint64_t>(states.size()));
  span.arg("alphabet", static_cast<std::uint64_t>(alphabet.size()));
  return dfa;
}

std::optional<Word> counterexample(const fsm::Dfa& system,
                                   const Formula& formula) {
  support::trace::Span span("ltlf.check");
  // A violation is a word of the system language satisfying ¬φ.
  const fsm::Dfa violations = to_dfa(make_not(formula), system.alphabet());
  std::optional<Word> witness =
      fsm::inclusion_witness(system, fsm::complement(violations));
  span.arg("violated", witness ? std::string_view("true")
                               : std::string_view("false"));
  return witness;
}

}  // namespace shelley::ltlf
