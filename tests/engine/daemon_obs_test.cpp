// Request-scoped observability of the daemon, driven in-process: a mixed
// 20+-request session must produce per-query-kind latency histograms with
// plausible quantiles in the stats reply, parseable Prometheus text from
// the metrics command, a slow-query log line carrying its request id, and
// a trace export forming one connected span tree per request across
// thread-pool workers.
#include "engine/daemon.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/driver.hpp"
#include "engine/query.hpp"
#include "engine/session.hpp"
#include "engine/workspace.hpp"
#include "paper_sources.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::engine {
namespace {

namespace log = support::log;
namespace metrics = support::metrics;
namespace trace = support::trace;

/// A long ring of operations: cold verification reliably takes more than
/// the 1 ms slow threshold the tests arm.
std::string ring_source(int ops) {
  std::string src = "@sys\nclass Ring:\n";
  for (int i = 0; i < ops; ++i) {
    src += i == 0 ? "    @op_initial_final\n" : "    @op_final\n";
    src += "    def op" + std::to_string(i) + "(self):\n";
    src += "        return [\"op" + std::to_string((i + 1) % ops) + "\"]\n\n";
  }
  return src;
}

class DaemonObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("daemon_obs_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write_file("valve.py", examples::kValveSource);
    write_file("bad.py", examples::kBadSectorSource);
    write_file("sector.py", examples::kSectorSource);
    write_file("good.py", examples::kGoodSectorSource);
    write_file("ring.py", ring_source(300));
    log_path_ = (dir_ / "daemon.ndjson").string();

    trace::set_enabled(true);
    trace::reset();
    metrics::set_enabled(true);
    metrics::reset();
  }

  void TearDown() override {
    log::configure("");
    trace::set_enabled(false);
    trace::reset();
    metrics::set_enabled(false);
    metrics::reset();
  }

  void write_file(const std::string& name, const std::string& text) {
    std::ofstream stream(dir_ / name, std::ios::binary);
    stream << text;
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string load_request() const {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("load");
    writer.key("files").begin_array();
    for (const char* file :
         {"valve.py", "bad.py", "sector.py", "good.py", "ring.py"}) {
      writer.value(path(file));
    }
    writer.end_array();
    writer.end_object();
    return writer.str();
  }

  std::vector<JsonValue> daemon_session(
      const std::vector<std::string>& requests, std::uint64_t slow_ms = 0) {
    CliOptions session;
    session.jobs = 1;
    session.slow_ms = slow_ms;
    std::string input;
    for (const std::string& request : requests) input += request + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_daemon(session, in, out, err), 0);
    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) responses.push_back(parse_json(line));
    }
    return responses;
  }

  /// The 24-request mixed session every test in this suite drives: loads,
  /// cold and warm verifies (serial and parallel), reports, updates, two
  /// stats probes, metrics, a trace export, shutdown.
  [[nodiscard]] std::vector<std::string> mixed_requests() const {
    std::string edited = examples::kValveSource;
    const auto pos = edited.find("return [\"test\"]");
    EXPECT_NE(pos, std::string::npos);
    edited.replace(pos, 15, "return [\"test\", \"clean\"]");
    JsonWriter update;
    update.begin_object();
    update.key("cmd").value("update");
    update.key("file").value(path("valve.py"));
    update.key("text").value(edited);
    update.end_object();
    JsonWriter revert;
    revert.begin_object();
    revert.key("cmd").value("update");
    revert.key("file").value(path("valve.py"));
    revert.key("text").value(examples::kValveSource);
    revert.end_object();
    return {
        R"({"cmd":"version"})",                         // 1
        load_request(),                                 // 2
        R"({"cmd":"verify","jobs":1})",                 // 3 (cold: slow)
        R"({"cmd":"verify","jobs":1})",                 // 4 (warm)
        R"({"cmd":"verify","jobs":4})",                 // 5
        R"({"cmd":"report","jobs":1})",                 // 6
        R"({"cmd":"report","jobs":4})",                 // 7
        update.str(),                                   // 8
        R"({"cmd":"verify","jobs":1})",                 // 9
        R"({"cmd":"verify","class":"BadSector"})",      // 10
        R"({"cmd":"verify","class":"Ring"})",           // 11
        R"({"cmd":"version"})",                         // 12
        R"({"cmd":"report","jobs":1})",                 // 13
        R"({"cmd":"verify","jobs":4})",                 // 14
        revert.str(),                                   // 15
        R"({"cmd":"verify","jobs":1})",                 // 16
        R"({"cmd":"verify","class":"Valve"})",          // 17
        R"({"cmd":"report","class":"GoodSector"})",     // 18
        R"({"cmd":"stats"})",                           // 19
        R"({"cmd":"metrics"})",                         // 20
        R"({"cmd":"verify","jobs":1})",                 // 21
        R"({"cmd":"stats"})",                           // 22
        R"({"cmd":"trace"})",                           // 23
        R"({"cmd":"shutdown"})",                        // 24
    };
  }

  std::filesystem::path dir_;
  std::string log_path_;
};

TEST_F(DaemonObsTest, StatsCarriesPlausibleHistogramsAndCounters) {
  const auto responses = daemon_session(mixed_requests());
  ASSERT_EQ(responses.size(), 24u);
  const JsonValue& stats = responses[21];  // request #22
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("requests").as_number(), 22.0);
  EXPECT_EQ(stats.at("request_errors").as_number(), 0.0);
  EXPECT_GE(stats.at("uptime_ms").as_number(), 0.0);

  const JsonValue& histograms = stats.at("histograms");
  // Per-request and per-query-kind latency series exist...
  const JsonValue& request_us = histograms.at("daemon.request_us");
  // ...and the request histogram counts exactly the requests finished
  // before this stats request was answered (21 of them).
  EXPECT_EQ(request_us.at("count").as_number(), 21.0);
  EXPECT_GT(histograms.at("query.report_us").at("count").as_number(), 0.0);
  EXPECT_GT(histograms.at("query.verify_all_us").at("count").as_number(),
            0.0);
  EXPECT_GT(histograms.at("pool.queue_wait_us").at("count").as_number(),
            0.0);
  // Quantile estimates are ordered and bounded by the observed extremes.
  for (const auto& [name, h] : histograms.as_object()) {
    const double p50 = h.at("p50").as_number();
    const double p90 = h.at("p90").as_number();
    const double p99 = h.at("p99").as_number();
    const double max = h.at("max").as_number();
    EXPECT_LE(p50, p90) << name;
    EXPECT_LE(p90, p99) << name;
    EXPECT_LE(p99, max) << name;
    EXPECT_GE(p50, h.at("min").as_number()) << name;
    // The sparse bucket array sums back to the count.
    double bucket_total = 0;
    for (const JsonValue& pair : h.at("buckets").as_array()) {
      bucket_total += pair.as_array()[1].as_number();
    }
    EXPECT_EQ(bucket_total, h.at("count").as_number()) << name;
  }

  // The satellite fix: support/metrics global counters fold into the
  // stats reply (the PR-6 allocation counters among them).
  const JsonValue& counters = stats.at("counters");
  EXPECT_GT(counters.at("fsm.determinize.calls").as_number(), 0.0);
  EXPECT_GT(counters.at("fsm.minimize.calls").as_number(), 0.0);
  // Cache tiers report their hit rates.
  EXPECT_GE(stats.at("memo").at("hit_rate").as_number(), 0.0);
  EXPECT_LE(stats.at("memo").at("hit_rate").as_number(), 1.0);
  EXPECT_GT(stats.at("parse").at("hit_rate").as_number(), 0.0);
}

TEST_F(DaemonObsTest, MetricsCommandEmitsParseablePrometheusText) {
  const auto responses = daemon_session(mixed_requests());
  ASSERT_EQ(responses.size(), 24u);
  const JsonValue& reply = responses[19];  // request #20
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string& body = reply.at("body").as_string();

  // Every line is a comment or `name[{labels}] value`; histogram series
  // end with a +Inf bucket equal to the _count sample.
  std::map<std::string, double> samples;
  std::istringstream lines(body);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    // Metric names are sanitized identifiers (plus optional {le="..."}).
    EXPECT_EQ(name.rfind("shelley_", 0), 0u) << line;
    samples[name] = std::stod(value);
    ++parsed;
  }
  EXPECT_GT(parsed, 10u);
  ASSERT_TRUE(samples.contains("shelley_daemon_requests_total"));
  EXPECT_EQ(samples["shelley_daemon_requests_total"], 20.0);
  ASSERT_TRUE(samples.contains(
      "shelley_daemon_request_us_bucket{le=\"+Inf\"}"));
  EXPECT_EQ(samples["shelley_daemon_request_us_bucket{le=\"+Inf\"}"],
            samples["shelley_daemon_request_us_count"]);
  EXPECT_GT(samples["shelley_query_report_us_count"], 0.0);
}

TEST_F(DaemonObsTest, SlowQueryLogCarriesTheRequestId) {
  ASSERT_TRUE(log::configure(log_path_));
  const auto responses = daemon_session(mixed_requests(), /*slow_ms=*/1);
  ASSERT_EQ(responses.size(), 24u);
  log::configure("");

  std::ifstream in(log_path_);
  std::string line;
  std::size_t starts = 0;
  std::size_t finishes = 0;
  bool found_slow = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue doc = parse_json(line);
    const std::string& event = doc.at("event").as_string();
    if (event == "request.start") ++starts;
    if (event == "request.finish") ++finishes;
    if (event == "request.slow") {
      found_slow = true;
      // The slow line names the culprit: its request id, command, and a
      // wall time above the armed threshold.
      EXPECT_GT(doc.at("request").as_number(), 0.0);
      EXPECT_FALSE(doc.at("cmd").as_string().empty());
      EXPECT_GT(doc.at("elapsed_us").as_number(), 1000.0);
      EXPECT_EQ(doc.at("threshold_ms").as_number(), 1.0);
      EXPECT_EQ(doc.at("level").as_string(), "warn");
    }
  }
  EXPECT_EQ(starts, 24u);
  EXPECT_EQ(finishes, 24u);
  // The 300-op ring's cold verification cannot finish within 1 ms.
  EXPECT_TRUE(found_slow);
}

TEST_F(DaemonObsTest, TraceExportFormsOneConnectedTreePerRequest) {
  const auto responses = daemon_session(mixed_requests());
  ASSERT_EQ(responses.size(), 24u);
  const JsonValue& reply = responses[22];  // request #23
  ASSERT_TRUE(reply.at("ok").as_bool());
  const JsonValue doc = parse_json(reply.at("trace").as_string());

  struct SpanRow {
    std::string name;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };
  std::map<std::uint64_t, SpanRow> spans;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    const JsonValue& args = event.at("args");
    SpanRow row;
    row.name = event.at("name").as_string();
    if (const JsonValue* parent = args.find("parent")) {
      row.parent = static_cast<std::uint64_t>(parent->as_number());
    }
    if (const JsonValue* request = args.find("request")) {
      row.request = static_cast<std::uint64_t>(request->as_number());
    }
    spans[static_cast<std::uint64_t>(args.at("span_id").as_number())] = row;
  }

  // One daemon.request root per finished request: ids 1..22 (the trace
  // request's own span is still open at export time, the shutdown not yet
  // read).
  std::set<std::uint64_t> roots;
  for (const auto& [id, row] : spans) {
    if (row.name != "daemon.request") continue;
    EXPECT_EQ(row.parent, 0u) << "request root must be parentless";
    EXPECT_TRUE(roots.insert(row.request).second)
        << "two roots for request " << row.request;
  }
  ASSERT_EQ(roots.size(), 22u);
  EXPECT_TRUE(roots.contains(1u));
  EXPECT_TRUE(roots.contains(22u));

  // Every other span walks up resolved parent links to the daemon.request
  // root of its own request -- across pool workers, no orphans.
  std::size_t walked = 0;
  for (const auto& [id, row] : spans) {
    if (row.name == "daemon.request") continue;
    ASSERT_NE(row.request, 0u) << row.name << " lost its request id";
    std::uint64_t cursor = id;
    std::set<std::uint64_t> seen;
    while (spans.at(cursor).name != "daemon.request") {
      ASSERT_TRUE(seen.insert(cursor).second) << "cycle at " << row.name;
      const std::uint64_t parent = spans.at(cursor).parent;
      ASSERT_NE(parent, 0u)
          << "orphan span " << spans.at(cursor).name << " (request "
          << row.request << ")";
      ASSERT_TRUE(spans.contains(parent))
          << "dangling parent on " << spans.at(cursor).name;
      cursor = parent;
    }
    EXPECT_EQ(spans.at(cursor).request, row.request)
        << row.name << " crossed into another request's tree";
    ++walked;
  }
  // The mixed session produced real work under the roots (pipeline spans
  // from serial and parallel verifies).
  EXPECT_GT(walked, 50u);
}

TEST_F(DaemonObsTest, QueryKindProbesCoverDfaAndSmvQueries) {
  // Drive compiled_table and smv_model (which has no daemon verb) through
  // the engine directly and check their histograms fill in.
  Workspace workspace;
  std::ostringstream err;
  load_inputs(workspace,
              {path("valve.py"), path("bad.py"), path("sector.py"),
               path("good.py")},
              err);
  QueryEngine engine(workspace);
  const core::ClassSpec* valve =
      workspace.verifier().find_class("Valve");
  ASSERT_NE(valve, nullptr);
  (void)engine.compiled_table(*valve);
  (void)engine.smv_model(*valve);
  (void)engine.verify_all(1);

  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, snap] : metrics::histogram_snapshot()) {
    counts[name] = snap.count;
  }
  EXPECT_GE(counts["query.compiled_table_us"], 1u);
  EXPECT_GE(counts["query.smv_model_us"], 1u);
  EXPECT_GE(counts["query.verify_all_us"], 1u);
  EXPECT_GE(counts["query.report_us"], 1u);
}

TEST_F(DaemonObsTest, TraceCommandWritesToAFile) {
  const std::string out_path = path("daemon_trace.json");
  JsonWriter request;
  request.begin_object();
  request.key("cmd").value("trace");
  request.key("out").value(out_path);
  request.end_object();
  const auto responses = daemon_session(
      {R"({"cmd":"version"})", request.str(), R"({"cmd":"shutdown"})"});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[1].at("ok").as_bool());
  EXPECT_EQ(responses[1].at("path").as_string(), out_path);
  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parse_json(buffer.str());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
}

TEST_F(DaemonObsTest, ObservabilityOffLeavesRepliesByteIdentical) {
  // The whole surface disabled: responses to the same session must be
  // byte-for-byte what an uninstrumented daemon writes.  (The existing
  // daemon differential suites cover daemon-vs-cold-shelleyc; this pins
  // instrumented-off vs instrumented-on response bytes for the non-stats
  // commands.)
  const std::vector<std::string> session = {
      load_request(), R"({"cmd":"verify","jobs":1})",
      R"({"cmd":"verify","jobs":4})", R"({"cmd":"report","jobs":1})",
      R"({"cmd":"shutdown"})"};
  const auto instrumented = daemon_session(session);

  trace::set_enabled(false);
  trace::reset();
  metrics::set_enabled(false);
  metrics::reset();
  const auto plain = daemon_session(session);

  ASSERT_EQ(instrumented.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(instrumented[i].at("ok").as_bool(),
              plain[i].at("ok").as_bool());
    if (const JsonValue* output = plain[i].find("output")) {
      EXPECT_EQ(output->as_string(),
                instrumented[i].at("output").as_string())
          << "response " << i;
    }
    if (const JsonValue* errors = plain[i].find("errors")) {
      EXPECT_EQ(errors->as_string(),
                instrumented[i].at("errors").as_string())
          << "response " << i;
    }
  }
}

TEST_F(DaemonObsTest, SwallowedRunFailureIsAnErrorReplyAndCounted) {
  // The error-accounting fix: a run_cli failure inside verify/report must
  // surface as {"ok":false,...}, count in request_errors, and leave a
  // request.error log line -- never a fabricated ok:true report.
  ASSERT_TRUE(log::configure(log_path_));
  testing::fail_next_run(true);
  const auto responses = daemon_session({
      R"({"cmd":"version"})",          // 1
      load_request(),                  // 2
      R"({"cmd":"verify","jobs":1})",  // 3 (injected failure)
      R"({"cmd":"verify","jobs":1})",  // 4 (recovers)
      R"({"cmd":"stats"})",            // 5
      R"({"cmd":"metrics"})",          // 6
      R"({"cmd":"shutdown"})",         // 7
  });
  testing::fail_next_run(false);
  log::configure("");
  ASSERT_EQ(responses.size(), 7u);

  const JsonValue& failed = responses[2];
  EXPECT_FALSE(failed.at("ok").as_bool());
  EXPECT_NE(failed.at("error").as_string().find("shelleyc: internal error"),
            std::string::npos);
  EXPECT_NE(failed.at("error").as_string().find("injected run failure"),
            std::string::npos);

  // The session recovers: the next verify answers with the real report.
  const JsonValue& recovered = responses[3];
  EXPECT_TRUE(recovered.at("ok").as_bool());
  EXPECT_NE(recovered.at("output").as_string().find("Valve: ok"),
            std::string::npos);

  const JsonValue& stats = responses[4];
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("requests").as_number(), 5.0);
  EXPECT_EQ(stats.at("request_errors").as_number(), 1.0);

  // The gauge reaches the Prometheus surface too.
  const std::string& body = responses[5].at("body").as_string();
  EXPECT_NE(body.find("shelley_daemon_request_errors_total 1"),
            std::string::npos);

  std::ifstream in(log_path_);
  std::string line;
  bool found_error = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue doc = parse_json(line);
    if (doc.at("event").as_string() != "request.error") continue;
    found_error = true;
    EXPECT_EQ(doc.at("request").as_number(), 3.0);
    EXPECT_EQ(doc.at("cmd").as_string(), "verify");
    EXPECT_NE(doc.at("error").as_string().find("injected run failure"),
              std::string::npos);
    EXPECT_EQ(doc.at("level").as_string(), "error");
  }
  EXPECT_TRUE(found_error);
}

TEST_F(DaemonObsTest, PrometheusRenderDeduplicatesCollidingSanitizedNames) {
  // "collide.a_us" and "collide_a.us" both sanitize to
  // "shelley_collide_a_us"; before the fix the exposition announced the
  // same "# TYPE" family twice, which Prometheus rejects.
  metrics::counter("collide.a_us").add(3);
  metrics::counter("collide_a.us").add(5);
  metrics::histogram("collide.h_us").record(7);
  metrics::histogram("collide_h.us").record(9);
  const auto responses = daemon_session({
      R"({"cmd":"metrics"})",
      R"({"cmd":"shutdown"})",
  });
  ASSERT_EQ(responses.size(), 2u);
  const std::string& body = responses[0].at("body").as_string();

  std::set<std::string> families;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const auto space = line.rfind(' ');
    const std::string name = line.substr(7, space - 7);
    EXPECT_TRUE(families.insert(name).second) << "duplicate family " << name;
  }
  // Both colliding series survive, under deterministic suffixed names.
  EXPECT_TRUE(families.contains("shelley_collide_a_us_total"));
  EXPECT_TRUE(families.contains("shelley_collide_a_us_total_2"));
  EXPECT_TRUE(families.contains("shelley_collide_h_us"));
  EXPECT_TRUE(families.contains("shelley_collide_h_us_2"));
}

TEST_F(DaemonObsTest, MonitorDataPlaneShowsInStatsMetricsAndTrace) {
  // Two monitor requests: an NDJSON blob (3 events, one a violation, plus
  // one malformed line) and an inline event array (2 events).
  JsonWriter ndjson;
  ndjson.begin_object();
  ndjson.key("cmd").value("monitor");
  ndjson.key("class").value("Valve");
  ndjson.key("ndjson").value(
      "{\"device\":\"a\",\"op\":\"test\"}\nnot json\n"
      "{\"device\":\"a\",\"op\":\"open\"}\n"
      "{\"device\":\"b\",\"op\":\"close\"}\n");
  ndjson.end_object();
  const auto responses = daemon_session(
      {load_request(), ndjson.str(),
       R"({"cmd":"monitor","class":"Valve","events":[)"
       R"({"device":"c","op":"test"},{"device":"c","op":"clean"}]})",
       R"({"cmd":"stats"})", R"({"cmd":"metrics"})", R"({"cmd":"trace"})",
       R"({"cmd":"shutdown"})"});
  ASSERT_EQ(responses.size(), 7u);
  ASSERT_TRUE(responses[1].at("ok").as_bool());
  EXPECT_EQ(responses[1].at("violations").as_number(), 1.0);
  EXPECT_EQ(responses[1].at("malformed").as_number(), 1.0);

  const JsonValue& stats = responses[3];
  const JsonValue& counters = stats.at("counters");
  EXPECT_EQ(counters.at("monitor.events").as_number(), 5.0);
  EXPECT_EQ(counters.at("monitor.accepted").as_number(), 4.0);
  EXPECT_EQ(counters.at("monitor.violations").as_number(), 1.0);
  EXPECT_EQ(counters.at("monitor.malformed").as_number(), 1.0);
  // One batch per monitor request: the blob, and the array's flush.
  EXPECT_EQ(stats.at("histograms")
                .at("monitor.batch_us")
                .at("count")
                .as_number(),
            2.0);

  const std::string& body = responses[4].at("body").as_string();
  EXPECT_NE(body.find("shelley_monitor_events_total 5\n"), std::string::npos);
  EXPECT_NE(body.find("shelley_monitor_batch_us_count 2\n"),
            std::string::npos);

  std::size_t ingest_spans = 0;
  const JsonValue trace_doc = parse_json(responses[5].at("trace").as_string());
  for (const JsonValue& event : trace_doc.at("traceEvents").as_array()) {
    if (const JsonValue* name = event.find("name")) {
      if (name->as_string() == "monitor.ingest") ++ingest_spans;
    }
  }
  EXPECT_EQ(ingest_spans, 2u);
}

}  // namespace
}  // namespace shelley::engine
