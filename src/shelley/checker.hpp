// Verification of composite classes (§2.2):
//
//  * subsystem-usage checking -- every complete behavior of the composite,
//    projected onto each subsystem, must be a valid complete usage of that
//    subsystem's class specification;
//
//  * temporal-claim checking -- every complete behavior, projected onto
//    subsystem events, must satisfy each @claim LTLf formula.
//
// Failures carry shortest counterexamples and render in the paper's report
// format (INVALID SUBSYSTEM USAGE / FAIL TO MEET REQUIREMENT).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fsm/dfa.hpp"
#include "shelley/automata.hpp"
#include "shelley/spec.hpp"

namespace shelley::core {

/// Which LTLf engine answers temporal claims.  kDfa is the historical
/// progression-DFA path (`ltlf::counterexample`); kTableau is the on-the-fly
/// frame solver (`ltlf::check_tableau`), which skips determinization
/// entirely; kBoth runs both, validates the tableau's witness independently,
/// and throws EngineDisagreement when the verdicts differ -- the
/// two-independent-implementations oracle discipline, promoted to a
/// runtime mode.
enum class LtlfEngine : std::uint8_t { kDfa = 0, kTableau = 1, kBoth = 2 };

/// Claim-checking knobs threaded from the CLI through the verifier.  Both
/// fields change verification output, so both fold into the cache key
/// (shelley/fingerprint.hpp).
struct CheckOptions {
  LtlfEngine ltlf_engine = LtlfEngine::kDfa;
  /// Satisfiability/vacuity lints on every parsed claim: warn when a claim
  /// is unsatisfiable, or trivially true, over its checking alphabet.
  bool lint_claims = false;
};

/// `--ltlf-engine both` found the two engines disagreeing on a claim (or a
/// tableau witness that does not actually witness).  Never caught inside
/// the pipeline: a disagreement is a bug in one of the engines and must
/// abort loudly rather than ship either answer.
class EngineDisagreement : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct SubsystemError {
  std::string field;         // e.g. "a"
  std::string class_name;    // e.g. "Valve"
  Word counterexample;       // full system trace: open_a, a.test, a.open
  std::string detail;        // e.g. "test, >open< (not final)"
};

struct ClaimError {
  std::string formula;  // the claim's source text
  Word counterexample;  // projected trace of subsystem events
};

struct CheckResult {
  std::vector<SubsystemError> subsystem_errors;
  std::vector<ClaimError> claim_errors;
  /// Claim-quality findings (unsatisfiable / trivially-true), emitted as
  /// warnings; verify_spec folds them into ClassReport::lint_findings.
  std::size_t claim_lints = 0;

  [[nodiscard]] bool ok() const {
    return subsystem_errors.empty() && claim_errors.empty();
  }

  /// Renders the paper-format report; empty string when ok().
  [[nodiscard]] std::string render(const SymbolTable& table) const;
};

/// Resolves a class name to its specification (nullptr when unknown).
using ClassLookup = std::function<const ClassSpec*(const std::string&)>;

/// Runs both checks on a composite class.  `diagnostics` receives problems
/// that prevent checking (unknown subsystem classes, unparsable claims).
[[nodiscard]] CheckResult check_composite(const ClassSpec& composite,
                                          const ClassLookup& lookup,
                                          SymbolTable& table,
                                          DiagnosticEngine& diagnostics,
                                          const CheckOptions& options = {});

/// check_composite reusing `usage`, the composite's own usage automaton
/// (the verifier shares the one its lints built).
[[nodiscard]] CheckResult check_composite(const ClassSpec& composite,
                                          UsageAutomaton& usage,
                                          const ClassLookup& lookup,
                                          SymbolTable& table,
                                          DiagnosticEngine& diagnostics,
                                          const CheckOptions& options);

/// Checks the @claim annotations of a *base* class against its valid-usage
/// language (atoms are bare operation names), reusing `usage`, `spec`'s
/// usage automaton.  Only the DFA oracle minimizes its subset construction.
/// Composites are handled by check_composite, which sees subsystem events
/// as well.
[[nodiscard]] CheckResult check_base_claims(const ClassSpec& spec,
                                            UsageAutomaton& usage,
                                            SymbolTable& table,
                                            DiagnosticEngine& diagnostics,
                                            const CheckOptions& options);

/// Explains why the projection of `word` onto its `<field>.<op>` symbols
/// is not a valid complete usage, walking `usage`, the field's usage DFA:
/// renders the op sequence with the offending call marked `>op<` plus
/// "(not final)" or "(not allowed)".
[[nodiscard]] std::string diagnose_subsystem_usage(const fsm::Dfa& usage,
                                                   std::string_view field,
                                                   const Word& word,
                                                   const SymbolTable& table);

namespace testing {
/// Makes the next `both`-mode claim check report an engine disagreement even
/// though the engines agree -- the regression hook proving the abort path
/// actually aborts (CheckOptions{kBoth} + one claim → EngineDisagreement).
/// Test-only; self-resets after one claim.
void force_ltlf_disagreement(bool force);
}  // namespace testing

/// Realizability: every usage declared by the composite's own annotations
/// should be executable by some run of its method bodies.  Undecodable
/// returns or unreachable exits silently shrink the realizable language
/// (`model.realizable`); this detects the gap against `usage`, the
/// composite's usage automaton, and returns a declared-but-unrealizable
/// operation sequence (nullopt when every declared usage is realizable).
[[nodiscard]] std::optional<Word> unrealizable_usage(const SystemModel& model,
                                                     UsageAutomaton& usage);

}  // namespace shelley::core
