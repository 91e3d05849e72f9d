// End-to-end observability: a traced verification run exports a Chrome
// trace document covering every pipeline stage, per-class statistics land
// in the report (JSON and C++-side), failing spans carry their first
// diagnostic, the DFA state-budget lint fires off the same statistics, and
// -- crucially -- none of it changes any output while disabled.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "paper_sources.hpp"
#include "shelley/report_json.hpp"
#include "shelley/verifier.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::core {
namespace {

constexpr std::string_view kUnreachableSource = R"(@sys
class Lamp:
    @op_initial_final
    def on(self):
        return ["on"]

    @op_final
    def ghost(self):
        return []
)";

class ObservabilityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    support::trace::set_enabled(false);
    support::trace::reset();
    support::metrics::set_enabled(false);
    support::metrics::reset();
  }
};

Report verify_paper_sources(Verifier& verifier, std::size_t jobs = 1) {
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  verifier.add_source(examples::kSectorSource);
  verifier.add_source(examples::kGoodSectorSource);
  return verifier.verify_all(jobs);
}

TEST_F(ObservabilityTest, TraceCoversEveryPipelineStage) {
  support::trace::set_enabled(true);
  support::trace::reset();
  support::metrics::set_enabled(true);
  support::metrics::reset();

  Verifier verifier;
  const Report report = verify_paper_sources(verifier);
  ASSERT_FALSE(report.classes.empty());

  const JsonValue doc = parse_json(support::trace::to_chrome_json());
  std::set<std::string> names;
  std::set<std::string> verified_classes;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    names.insert(event.at("name").as_string());
    if (event.at("name").as_string() == "shelley.verify") {
      verified_classes.insert(event.at("args").at("class").as_string());
    }
  }
  // One span per pipeline stage, end to end.
  for (const char* stage :
       {"upy.lex", "upy.parse", "ir.lower", "ir.infer", "fsm.determinize",
        "fsm.minimize", "fsm.inclusion", "ltlf.to_dfa", "ltlf.check",
        "shelley.usage_nfa", "shelley.extract_behaviors",
        "shelley.build_system_model", "shelley.check_composite",
        "shelley.verify"}) {
    EXPECT_TRUE(names.contains(stage)) << "missing span: " << stage;
  }
  // A per-class automata counter track for each verified class.
  for (const ClassReport& cls : report.classes) {
    EXPECT_TRUE(verified_classes.contains(cls.class_name));
    EXPECT_TRUE(names.contains("automata/" + cls.class_name))
        << "missing counter track for " << cls.class_name;
  }
}

TEST_F(ObservabilityTest, VerifyStepsHaveTheirOwnSpans) {
  support::trace::set_enabled(true);
  support::trace::reset();

  Verifier verifier;
  const Report report = verify_paper_sources(verifier);
  ASSERT_EQ(report.classes.size(), 4u);

  const JsonValue doc = parse_json(support::trace::to_chrome_json());
  std::set<std::uint64_t> verify_spans;
  std::map<std::uint64_t, std::set<std::string>> children;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    const JsonValue& args = event.at("args");
    if (event.at("name").as_string() == "shelley.verify") {
      verify_spans.insert(
          static_cast<std::uint64_t>(args.at("span_id").as_number()));
    }
    if (const JsonValue* parent = args.find("parent")) {
      children[static_cast<std::uint64_t>(parent->as_number())].insert(
          event.at("name").as_string());
    }
  }
  ASSERT_EQ(verify_spans.size(), report.classes.size());
  for (const std::uint64_t span : verify_spans) {
    for (const char* step :
         {"shelley.dependencies", "shelley.invocations", "shelley.lint"}) {
      EXPECT_TRUE(children[span].contains(step))
          << "shelley.verify span " << span << " has no " << step
          << " child";
    }
  }
}

TEST_F(ObservabilityTest, PerClassStatsAreCollected) {
  support::metrics::set_enabled(true);
  support::metrics::reset();

  Verifier verifier;
  const Report report = verify_paper_sources(verifier);
  for (const ClassReport& cls : report.classes) {
    EXPECT_TRUE(cls.stats.collected) << cls.class_name;
    EXPECT_GT(cls.stats.nfa_states, 0u) << cls.class_name;
    EXPECT_GT(cls.stats.determinize_calls, 0u) << cls.class_name;
    EXPECT_GT(cls.stats.elapsed_ms, 0.0) << cls.class_name;
  }
  // BadSector fails with a subsystem counterexample; its length must have
  // been recorded.
  const ClassReport& bad = report.classes[1];
  ASSERT_EQ(bad.class_name, "BadSector");
  EXPECT_FALSE(bad.ok());
  EXPECT_GT(bad.stats.counterexample_len, 0u);
  EXPECT_GT(bad.stats.product_pairs, 0u);
}

TEST_F(ObservabilityTest, StatsLandInReportJson) {
  support::metrics::set_enabled(true);
  support::metrics::reset();

  Verifier verifier;
  const Report report = verify_paper_sources(verifier);
  const JsonValue doc =
      parse_json(report_to_json(report, verifier, /*include_stats=*/true));
  const JsonValue::Array& classes = doc.at("classes").as_array();
  ASSERT_FALSE(classes.empty());
  for (const JsonValue& cls : classes) {
    const JsonValue& stats = cls.at("stats");
    EXPECT_GT(stats.at("nfa_states").as_number(), 0.0);
    EXPECT_GT(stats.at("elapsed_ms").as_number(), 0.0);
  }
  const JsonValue& global = doc.at("stats");
  EXPECT_GT(global.at("counters").at("fsm.determinize.calls").as_number(),
            0.0);
  EXPECT_TRUE(global.at("distributions").at("fsm.dfa.states").is_object());
}

TEST_F(ObservabilityTest, DisabledInstrumentationChangesNothing) {
  // Everything observable -- the JSON report (without stats), the rendered
  // report, the diagnostics -- must be byte-identical whether the
  // instrumentation is off (default) or fully on, serial or parallel.
  const auto observe = [](std::size_t jobs) {
    Verifier verifier;
    const Report report = verify_paper_sources(verifier, jobs);
    return report_to_json(report, verifier) + "\n---\n" +
           report.render(verifier.symbols()) + "\n---\n" +
           verifier.diagnostics().render();
  };

  const std::string baseline_serial = observe(1);
  const std::string baseline_parallel = observe(4);
  EXPECT_EQ(baseline_serial, baseline_parallel);

  support::trace::set_enabled(true);
  support::trace::reset();
  support::metrics::set_enabled(true);
  support::metrics::reset();
  EXPECT_EQ(observe(1), baseline_serial);
  EXPECT_EQ(observe(4), baseline_serial);
}

TEST_F(ObservabilityTest, ReportJsonWithoutStatsHasNoStatsKeys) {
  support::metrics::set_enabled(true);
  support::metrics::reset();
  Verifier verifier;
  const Report report = verify_paper_sources(verifier);
  const std::string json = report_to_json(report, verifier);
  EXPECT_EQ(json.find("\"stats\""), std::string::npos);
}

TEST_F(ObservabilityTest, FailingClassSpanCarriesFirstDiagnostic) {
  support::trace::set_enabled(true);
  support::trace::reset();

  Verifier verifier;
  verifier.add_source(kUnreachableSource);
  const Report report = verifier.verify_all(1);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_GE(report.classes[0].lint_findings, 1u);

  const JsonValue doc = parse_json(support::trace::to_chrome_json());
  const JsonValue* verify_span = nullptr;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "shelley.verify") {
      verify_span = &event;
    }
  }
  ASSERT_NE(verify_span, nullptr);
  const JsonValue& args = verify_span->at("args");
  EXPECT_EQ(args.at("class").as_string(), "Lamp");
  EXPECT_NE(args.at("first_diagnostic").as_string().find("unreachable"),
            std::string::npos);
  EXPECT_FALSE(args.at("first_diagnostic_loc").as_string().empty());
  // And the diagnostic itself produced an instant event.
  bool found_instant = false;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "diagnostic" &&
        event.at("ph").as_string() == "i") {
      found_instant = true;
      EXPECT_NE(event.at("args").at("message").as_string().find(
                    "unreachable"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found_instant);
}

TEST_F(ObservabilityTest, DfaBudgetLintFires) {
  Verifier verifier;
  verifier.set_lint_options(LintOptions{/*dfa_state_budget=*/1});
  verifier.add_source(examples::kValveSource);
  const Report report = verifier.verify_all(1);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_TRUE(report.classes[0].ok());  // a warning, not an error
  EXPECT_GE(report.classes[0].lint_findings, 1u);
  bool found = false;
  for (const Diagnostic& diag : verifier.diagnostics().diagnostics()) {
    if (diag.message.find("exceeding the configured budget") !=
        std::string::npos) {
      found = true;
      EXPECT_EQ(diag.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObservabilityTest, DfaBudgetLintStaysQuietUnderBudget) {
  Verifier verifier;
  verifier.set_lint_options(LintOptions{/*dfa_state_budget=*/100000});
  verifier.add_source(examples::kValveSource);
  const Report report = verifier.verify_all(1);
  ASSERT_EQ(report.classes.size(), 1u);
  for (const Diagnostic& diag : verifier.diagnostics().diagnostics()) {
    EXPECT_EQ(diag.message.find("exceeding the configured budget"),
              std::string::npos);
  }
  // The stats were still collected (the lint needed them) ...
  EXPECT_TRUE(report.classes[0].stats.collected);
  // ... without touching the global registry.
  EXPECT_EQ(
      support::metrics::counter("fsm.determinize.calls").value(), 0u);
}

TEST_F(ObservabilityTest, ParallelRunHasNoOrphanSpans) {
  // The regression this PR fixes: spans opened on verify_all(jobs) worker
  // threads used to surface as parentless roots in --trace-out timelines.
  // With context propagation through ThreadPool::submit, a --jobs 4 run
  // must yield exactly one root (the verify_all span) with every pipeline
  // span reachable from it through resolved parent links.
  support::trace::set_enabled(true);
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  verifier.add_source(examples::kSectorSource);
  verifier.add_source(examples::kGoodSectorSource);
  support::trace::reset();  // only the verify phase is under test
  const Report report = verifier.verify_all(4);
  ASSERT_EQ(report.classes.size(), 4u);

  const JsonValue doc = parse_json(support::trace::to_chrome_json());
  std::set<std::uint64_t> ids;
  std::size_t roots = 0;
  std::size_t spans = 0;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    ids.insert(static_cast<std::uint64_t>(
        event.at("args").at("span_id").as_number()));
  }
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    ++spans;
    const JsonValue* parent = event.at("args").find("parent");
    if (parent == nullptr) {
      ++roots;
      EXPECT_EQ(event.at("name").as_string(), "shelley.verify_all");
    } else {
      EXPECT_TRUE(ids.contains(
          static_cast<std::uint64_t>(parent->as_number())))
          << "dangling parent link on "
          << event.at("name").as_string();
    }
  }
  EXPECT_EQ(roots, 1u);
  // The parallel run actually produced a tree, not just the root.
  EXPECT_GT(spans, 4u);
}

TEST_F(ObservabilityTest, TracedParallelRunStaysDeterministic) {
  support::trace::set_enabled(true);
  support::trace::reset();
  support::metrics::set_enabled(true);
  support::metrics::reset();

  Verifier serial;
  const Report serial_report = verify_paper_sources(serial, 1);
  Verifier parallel;
  const Report parallel_report = verify_paper_sources(parallel, 4);

  EXPECT_EQ(report_to_json(serial_report, serial),
            report_to_json(parallel_report, parallel));
  // Worker threads interleave their spans without losing any: the export
  // still parses, and every class got its verify span.
  const JsonValue doc = parse_json(support::trace::to_chrome_json());
  std::set<std::string> verified;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "shelley.verify") {
      verified.insert(event.at("args").at("class").as_string());
    }
  }
  for (const ClassReport& cls : serial_report.classes) {
    EXPECT_TRUE(verified.contains(cls.class_name)) << cls.class_name;
  }
}

}  // namespace
}  // namespace shelley::core
