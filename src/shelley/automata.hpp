// Compilation of class specifications into automata:
//
//  * usage_nfa    -- the valid-usage language of one instance: every word of
//                    operation names that starts with an initial operation,
//                    follows the successor sets of the exits taken, and ends
//                    after a final operation (or is empty: an instance may
//                    be constructed and never used).
//
//  * usage_dfa    -- its minimal DFA, the one builder every consumer uses.
//
//  * UsageAutomaton -- one class's usage NFA and its subset construction,
//                    built once and shared by every check of that class.
//
//  * extract_behaviors -- per-operation method-behavior extraction (§3.2):
//                    lower the body to the IR, run the inference of Fig. 4,
//                    and keep the returned behaviors routed to their exits.
//
//  * build_system_model -- the composite-system automaton: each composite
//                    operation contributes its own label followed by its
//                    body behavior over subsystem events, so counterexamples
//                    read like the paper's `open_a, a.test, a.open`.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "fsm/dfa.hpp"
#include "fsm/nfa.hpp"
#include "ir/inference.hpp"
#include "ir/program.hpp"
#include "shelley/spec.hpp"
#include "support/symbol.hpp"

namespace shelley::core {

/// Builds the valid-usage NFA of `spec` over symbols `<prefix><op>`.
/// States: a fresh state (initial, accepting) and one state per exit point;
/// invoking an operation consumes its symbol and lands nondeterministically
/// on one of its exits; exits of final operations accept.
[[nodiscard]] fsm::Nfa usage_nfa(const ClassSpec& spec, SymbolTable& table,
                                 std::string_view prefix = "");

/// The minimal DFA of usage_nfa(spec, table, prefix).
[[nodiscard]] fsm::Dfa usage_dfa(const ClassSpec& spec, SymbolTable& table,
                                 std::string_view prefix = "");

/// The usage NFA of `spec` (no prefix) and its subset construction over the
/// NFA's own alphabet, each built on first use and kept.  The verifier hands
/// one instance to the completability lint, the claim check and the
/// realizability check, so a verified class builds its usage automaton
/// once.  The subset construction is not minimized: the completability
/// lint must tell the empty subset apart.  `spec` and `table` must outlive
/// the instance.
class UsageAutomaton {
 public:
  UsageAutomaton(const ClassSpec& spec, SymbolTable& table)
      : spec_(spec), table_(table) {}

  [[nodiscard]] const fsm::Nfa& nfa();
  [[nodiscard]] const fsm::Dfa& subsets();

 private:
  const ClassSpec& spec_;
  SymbolTable& table_;
  std::optional<fsm::Nfa> nfa_;
  std::optional<fsm::Dfa> subsets_;
};

/// The analyzed body of one operation.
struct OperationBehavior {
  ir::Program program;        // lowered IR with exit-tagged returns
  ir::Behavior behavior;      // ⟦p⟧ = (ongoing, returned)
  bool falls_off_end = false; // L(ongoing) is non-empty: some path never
                              // reaches a return statement
};

/// Lowers and analyzes every operation body of `spec`, tracking calls on
/// the class's subsystem fields.
[[nodiscard]] std::map<std::string, OperationBehavior> extract_behaviors(
    const ClassSpec& spec, SymbolTable& table, DiagnosticEngine& diagnostics);

/// The composite-system automaton and its split alphabet.
struct SystemModel {
  fsm::Nfa nfa;
  std::vector<Symbol> op_symbols;     // labels of the composite's operations
  std::vector<Symbol> event_symbols;  // subsystem calls `field.method`
  fsm::Nfa realizable;  // usage NFA over the exits the bodies reach:
                        // `nfa` with the events erased, without ε-edges

  [[nodiscard]] std::vector<Symbol> full_alphabet() const;
};

/// Builds the system model of a composite class from its spec and the
/// extracted behaviors.  Operations that may fall off the end without
/// returning get an implicit exit with no successors (and a warning).
[[nodiscard]] SystemModel build_system_model(
    const ClassSpec& spec,
    const std::map<std::string, OperationBehavior>& behaviors,
    SymbolTable& table, DiagnosticEngine& diagnostics);

}  // namespace shelley::core
