// The per-class verification pipeline (§3 steps 1-3 plus the composite
// checks of §2.2) and the symbol pre-warming that keeps parallel and
// replayed runs byte-identical to the serial path.  Split out of
// verifier.cpp: this file is the pipeline, verifier.cpp is registration
// and driving, replay.cpp is the verdict capture/replay codec.
#include <chrono>
#include <optional>

#include "ir/lowering.hpp"
#include "ltlf/parser.hpp"
#include "shelley/automata.hpp"
#include "shelley/graph.hpp"
#include "shelley/invocation.hpp"
#include "shelley/lint.hpp"
#include "shelley/verifier.hpp"
#include "support/guard.hpp"
#include "support/trace.hpp"

namespace shelley::core {

ClassReport Verifier::verify_spec(const ClassSpec& spec,
                                  DiagnosticEngine& sink) {
  ClassReport report;
  report.class_name = spec.name;
  report.is_composite = spec.is_composite;

  support::trace::Span span("shelley.verify");
  span.arg("class", spec.name);
  const std::size_t diags_before = sink.diagnostics().size();

  // Collect per-class automata statistics when anyone will consume them:
  // the metrics registry (--stats / --trace-out / SHELLEY_TRACE=1) or the
  // DFA state-budget lint.  Otherwise the sink stays unset and every
  // record_* call in the pipeline below stays on its two-load fast path.
  std::optional<support::metrics::ScopedSink> stats_guard;
  const bool want_stats = support::metrics::enabled() ||
                          lint_options_.dfa_state_budget > 0;
  if (want_stats) stats_guard.emplace(&report.stats);
  const auto started = std::chrono::steady_clock::now();

  try {
    // Step 1 -- method dependency extraction validates successor references.
    // The lints walk the same graph.
    support::guard::check_deadline("verify.dependencies");
    DependencyGraph graph;
    {
      support::trace::Span step("shelley.dependencies");
      graph = DependencyGraph::build(spec, sink);
    }

    // Step 3 -- method invocation analysis.
    support::guard::check_deadline("verify.invocations");
    {
      support::trace::Span step("shelley.invocations");
      report.invocation_errors = analyze_invocations(spec, lookup(), sink);
    }

    // Specification lints (warnings only).  The completability lint builds
    // the class's usage automaton, after the cheaper lints have reported;
    // the checks below reuse it.
    UsageAutomaton usage(spec, table_);
    {
      support::trace::Span step("shelley.lint");
      report.lint_findings = lint_class(spec, graph, usage, table_, sink);
    }

    // Step 2 plus the composite checks of §2.2 (behavior extraction happens
    // inside check_composite).  Base classes still get their claims checked
    // against the valid-usage language.
    support::guard::check_deadline("verify.check");
    if (spec.is_composite) {
      report.check = check_composite(spec, usage, lookup(), table_, sink,
                                     check_options_);
    } else {
      report.check =
          check_base_claims(spec, usage, table_, sink, check_options_);
    }
    // Claim-quality findings are lints: warnings that never affect ok().
    report.lint_findings += report.check.claim_lints;
  } catch (const support::guard::ResourceError& error) {
    // One class blowing its state budget / deadline must not take down the
    // whole run: record it (fails ok()) and let verify_all keep going.
    ++report.resource_errors;
    sink.error(error.loc(), "verification of '" + spec.name +
                                "' aborted: " + error.message());
  }

  if (want_stats) {
    report.stats.elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    stats_guard.reset();  // stop attributing before the lint reads stats
    report.lint_findings +=
        lint_state_budget(spec, report.stats, lint_options_, sink);
  }

  span.arg("ok", report.ok() ? std::string_view("true")
                             : std::string_view("false"));
  if (support::trace::enabled()) {
    // Surface the first diagnostic this class produced as span metadata, so
    // a red span in the trace viewer explains itself.
    const auto& diags = sink.diagnostics();
    if (diags.size() > diags_before) {
      const Diagnostic& first = diags[diags_before];
      span.arg("first_diagnostic", first.message);
      span.arg("first_diagnostic_loc", to_string(first.loc));
    }
    if (report.stats.collected) {
      span.arg("dfa_states", report.stats.dfa_states_after);
      support::trace::counter(
          "automata/" + spec.name,
          {support::trace::Arg("nfa_states", report.stats.nfa_states),
           support::trace::Arg("dfa_states_before",
                               report.stats.dfa_states_before),
           support::trace::Arg("dfa_states_after",
                               report.stats.dfa_states_after),
           support::trace::Arg("product_pairs",
                               report.stats.product_pairs),
           support::trace::Arg("ltlf_states", report.stats.ltlf_states),
           support::trace::Arg("counterexample_len",
                               report.stats.counterexample_len)});
    }
  }
  return report;
}

void Verifier::warm_symbols(const ClassSpec& spec) {
  // Mirrors the intern calls of verify_spec exactly, in order.  The first
  // table touch is lint_completability's usage_nfa(spec, table): one bare
  // operation name per operation.
  if (!spec.operations.empty()) {
    for (const Operation& op : spec.operations) {
      (void)table_.intern(op.name);
    }
  }

  if (spec.is_composite) {
    // check_composite: extract_behaviors lowers every operation body and
    // interns one `field.method` symbol per tracked call, in source order.
    ir::LoweringContext context;
    for (const SubsystemDecl& subsystem : spec.subsystems) {
      context.tracked_fields.insert(subsystem.field);
    }
    context.symbols = &table_;  // diagnostics/next_return_id stay null
    for (const Operation& op : spec.operations) {
      (void)ir::lower_block(op.body, context);
    }
    // build_system_model re-interns the bare operation names (no-ops by
    // now); the per-subsystem usage DFAs, built or renamed, intern the
    // prefix-qualified names of each subsystem class's operations.
    for (const SubsystemDecl& subsystem : spec.subsystems) {
      const ClassSpec* sub_spec = find_class(subsystem.class_name);
      if (sub_spec == nullptr) continue;
      const std::string prefix = subsystem.field + ".";
      for (const Operation& op : sub_spec->operations) {
        (void)table_.intern(prefix + op.name);
      }
    }
  } else if (spec.claims.empty()) {
    return;  // check_base_claims bails out before touching the table
  }

  // Claim atoms are interned while parsing, left to right.  Malformed
  // claims intern whatever atoms precede the error, then throw; the real
  // verification pass reports that error into its own sink.
  for (const Claim& claim : spec.claims) {
    try {
      (void)ltlf::parse(claim.text, table_);
    } catch (const ParseError&) {
      // ignored here; verify_spec diagnoses it
    }
  }
}

}  // namespace shelley::core
