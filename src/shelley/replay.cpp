// The replay protocol of the verifier: content-addressed keys, verdict
// capture, and byte-identical replay.  Split out of verifier.cpp so the
// pipeline (verify_spec.cpp) and the registration/driver logic
// (verifier.cpp) stay independent of the cache encoding; the query engine
// (src/engine) decides when a verdict is captured or replayed.
#include "shelley/replay.hpp"

#include <utility>

#include "shelley/fingerprint.hpp"
#include "support/guard.hpp"

namespace shelley::core {

support::Digest128 Verifier::cache_key(const ClassSpec& spec) const {
  FingerprintOptions options;
  options.dfa_state_budget = lint_options_.dfa_state_budget;
  options.max_states = support::guard::limits().max_states;
  options.ltlf_engine = static_cast<std::uint64_t>(check_options_.ltlf_engine);
  options.lint_claims = check_options_.lint_claims ? 1 : 0;
  return class_key(spec, lookup(), options);
}

CachedVerdict capture_verdict(const ClassReport& report,
                              const DiagnosticEngine& sink,
                              std::size_t diags_begin,
                              const SymbolTable& table) {
  CachedVerdict verdict;
  verdict.class_name = report.class_name;
  verdict.is_composite = report.is_composite;
  verdict.invocation_errors = report.invocation_errors;
  verdict.lint_findings = report.lint_findings;
  for (const SubsystemError& error : report.check.subsystem_errors) {
    CachedSubsystemError cached_error;
    cached_error.field = error.field;
    cached_error.class_name = error.class_name;
    for (const Symbol symbol : error.counterexample) {
      cached_error.counterexample.push_back(table.name(symbol));
    }
    cached_error.detail = error.detail;
    verdict.subsystem_errors.push_back(std::move(cached_error));
  }
  for (const ClaimError& error : report.check.claim_errors) {
    CachedClaimError cached_error;
    cached_error.formula = error.formula;
    for (const Symbol symbol : error.counterexample) {
      cached_error.counterexample.push_back(table.name(symbol));
    }
    verdict.claim_errors.push_back(std::move(cached_error));
  }
  const auto& diags = sink.diagnostics();
  for (std::size_t i = diags_begin; i < diags.size(); ++i) {
    verdict.diagnostics.push_back(CachedDiagnostic{
        static_cast<std::uint8_t>(diags[i].severity), diags[i].loc.line,
        diags[i].loc.column, diags[i].message});
  }
  return verdict;
}

ClassReport Verifier::replay_verdict(const ClassSpec& spec,
                                     CachedVerdict verdict,
                                     DiagnosticEngine& sink) {
  // Intern everything the real verification would intern, in the same
  // order, so downstream (missing) classes see identical symbol ids and
  // produce byte-identical witnesses.  Every counterexample symbol below
  // is part of that warmed set.
  warm_symbols(spec);
  ClassReport report;
  report.class_name = spec.name;
  report.is_composite = verdict.is_composite;
  report.invocation_errors = verdict.invocation_errors;
  report.lint_findings = verdict.lint_findings;
  for (CachedSubsystemError& error : verdict.subsystem_errors) {
    report.check.subsystem_errors.push_back(SubsystemError{
        std::move(error.field), std::move(error.class_name),
        intern_word(error.counterexample, table_), std::move(error.detail)});
  }
  for (CachedClaimError& error : verdict.claim_errors) {
    report.check.claim_errors.push_back(ClaimError{
        std::move(error.formula),
        intern_word(error.counterexample, table_)});
  }
  for (CachedDiagnostic& diag : verdict.diagnostics) {
    sink.report(static_cast<Severity>(diag.severity),
                SourceLoc{diag.line, diag.column}, std::move(diag.message));
  }
  return report;
}

}  // namespace shelley::core
