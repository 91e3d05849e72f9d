// shelleyd's request loop, driven in-process: a daemon session over the
// paper sources must answer verify/report with the exact bytes a cold
// shelleyc run produces, stay byte-identical when warm, and re-verify
// only the dependency closure after an update.
#include "engine/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/driver.hpp"
#include "monitor/stream.hpp"
#include "paper_sources.hpp"
#include "shelley/fingerprint.hpp"
#include "support/json.hpp"

namespace shelley::engine {
namespace {

constexpr const char* kLedSource =
    "@sys\nclass Led:\n    @op_initial_final\n"
    "    def blink(self):\n        return [\"blink\"]\n";

/// The outcome of one in-process CLI or daemon run.
struct RunResult {
  int status = 0;
  std::string out;
  std::string err;
};

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("daemon_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write_file("valve.py", examples::kValveSource);
    write_file("bad.py", examples::kBadSectorSource);
    write_file("sector.py", examples::kSectorSource);
    write_file("good.py", examples::kGoodSectorSource);
    write_file("led.py", kLedSource);
  }

  void write_file(const std::string& name, const std::string& text) {
    std::ofstream stream(dir_ / name, std::ios::binary);
    stream << text;
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::vector<std::string> paper_paths() const {
    return {path("valve.py"), path("bad.py"), path("sector.py"),
            path("good.py"), path("led.py")};
  }

  /// A cold shelleyc run over `files` (serial, text mode unless `json`).
  RunResult cold_cli(const std::vector<std::string>& files,
                     bool json = false) {
    CliOptions options;
    options.files = files;
    options.jobs = 1;
    options.json = json;
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    RunResult result;
    result.status = run_tool(options, in, out, err);
    result.out = out.str();
    result.err = err.str();
    return result;
  }

  /// Feeds `requests` (one JSON document per element) to an in-process
  /// daemon and returns the parsed response lines.
  std::vector<JsonValue> daemon_session(
      const std::vector<std::string>& requests) {
    CliOptions session;
    session.jobs = 1;
    std::string input;
    for (const std::string& request : requests) input += request + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_daemon(session, in, out, err), 0);
    EXPECT_EQ(err.str(), "");
    std::vector<JsonValue> responses;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) responses.push_back(parse_json(line));
    }
    return responses;
  }

  [[nodiscard]] std::string load_request() const {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("load");
    writer.key("files").begin_array();
    for (const std::string& file : paper_paths()) writer.value(file);
    writer.end_array();
    writer.end_object();
    return writer.str();
  }

  [[nodiscard]] static std::string update_request(const std::string& file,
                                                  const std::string& text) {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("update");
    writer.key("file").value(file);
    writer.key("text").value(text);
    writer.end_object();
    return writer.str();
  }

  [[nodiscard]] static std::string edited_valve() {
    std::string edited = examples::kValveSource;
    const auto pos = edited.find("return [\"test\"]");
    EXPECT_NE(pos, std::string::npos);
    edited.replace(pos, 15, "return [\"test\", \"clean\"]");
    return edited;
  }

  std::filesystem::path dir_;
};

TEST_F(DaemonTest, VersionReportsTheToolchainVersion) {
  const auto responses = daemon_session({R"({"cmd":"version"})"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("version").as_string(), core::kToolchainVersion);
}

TEST_F(DaemonTest, VerifyMatchesColdCliByteForByte) {
  const RunResult cold = cold_cli(paper_paths());
  const auto responses =
      daemon_session({load_request(), R"({"cmd":"verify","jobs":1})"});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& load = responses[0];
  const JsonValue& verify = responses[1];
  ASSERT_TRUE(load.at("ok").as_bool());
  ASSERT_TRUE(verify.at("ok").as_bool());
  EXPECT_EQ(load.at("files").as_array().size(), 5u);
  // The loader's stderr and the request's stderr concatenate to exactly
  // the cold run's stderr; stdout and exit status match outright.
  EXPECT_EQ(load.at("errors").as_string() + verify.at("errors").as_string(),
            cold.err);
  EXPECT_EQ(verify.at("output").as_string(), cold.out);
  EXPECT_EQ(static_cast<int>(verify.at("status").as_number()), cold.status);
}

TEST_F(DaemonTest, JsonReportMatchesColdCli) {
  const RunResult cold = cold_cli(paper_paths(), /*json=*/true);
  const auto responses =
      daemon_session({load_request(), R"({"cmd":"report","jobs":1})"});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& report = responses[1];
  EXPECT_EQ(report.at("output").as_string(), cold.out);
  EXPECT_EQ(static_cast<int>(report.at("status").as_number()), cold.status);
}

TEST_F(DaemonTest, WarmVerifyIsByteIdenticalAndFullyMemoized) {
  const auto responses = daemon_session({load_request(),
                                         R"({"cmd":"verify","jobs":1})",
                                         R"({"cmd":"verify","jobs":1})",
                                         R"({"cmd":"stats"})"});
  ASSERT_EQ(responses.size(), 4u);
  const JsonValue& first = responses[1];
  const JsonValue& second = responses[2];
  EXPECT_EQ(second.at("output").as_string(), first.at("output").as_string());
  EXPECT_EQ(second.at("errors").as_string(), first.at("errors").as_string());
  const JsonValue& queries = responses[3].at("queries");
  // Cold sweep: 5 misses; warm sweep: 5 hits, not one query re-ran.
  EXPECT_EQ(queries.at("report_misses").as_number(), 5);
  EXPECT_EQ(queries.at("report_hits").as_number(), 5);
}

TEST_F(DaemonTest, UpdateReverifiesOnlyTheDependencyClosure) {
  const std::string edited = edited_valve();
  const auto responses = daemon_session(
      {load_request(), R"({"cmd":"verify","jobs":1})",
       update_request(path("valve.py"), edited),
       R"({"cmd":"verify","jobs":1})", R"({"cmd":"stats"})"});
  ASSERT_EQ(responses.size(), 5u);

  // The edit to Valve invalidates exactly its dependency closure: Valve
  // plus the three composites built on it.  Led stays memoized.
  const JsonValue& update = responses[2];
  ASSERT_TRUE(update.at("ok").as_bool());
  std::vector<std::string> changed;
  for (const JsonValue& name : update.at("changed").as_array()) {
    changed.push_back(name.as_string());
  }
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::string>{"BadSector", "GoodSector",
                                               "Sector", "Valve"}));
  EXPECT_EQ(update.at("invalidated").as_number(), 4);

  const JsonValue& queries = responses[4].at("queries");
  // Cold 5 misses; post-update sweep: 1 hit (Led) + 4 fresh misses.
  EXPECT_EQ(queries.at("report_misses").as_number(), 9);
  EXPECT_EQ(queries.at("report_hits").as_number(), 1);

  // And the post-update answer equals a cold run over the edited sources.
  write_file("valve.py", edited);
  const RunResult cold = cold_cli(paper_paths());
  const JsonValue& verify = responses[3];
  EXPECT_EQ(verify.at("output").as_string(), cold.out);
  EXPECT_EQ(verify.at("errors").as_string(), cold.err);
  EXPECT_EQ(static_cast<int>(verify.at("status").as_number()), cold.status);
}

TEST_F(DaemonTest, ParallelVerifyMatchesSerialBytes) {
  // Same session, serial then parallel then serial again: the merge
  // protocol keeps the bytes identical regardless of jobs (and the
  // parallel run drives the shared pool under TSan).
  const auto responses =
      daemon_session({load_request(), R"({"cmd":"verify","jobs":1})",
                      R"({"cmd":"verify","jobs":4})",
                      R"({"cmd":"verify","jobs":4})"});
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(responses[i].at("output").as_string(),
              responses[1].at("output").as_string());
    EXPECT_EQ(responses[i].at("errors").as_string(),
              responses[1].at("errors").as_string());
    EXPECT_EQ(responses[i].at("status").as_number(),
              responses[1].at("status").as_number());
  }
}

TEST_F(DaemonTest, CommentOnlyUpdateInvalidatesNothing) {
  std::string edited = examples::kValveSource;
  const auto pos = edited.find("def test(self):");
  ASSERT_NE(pos, std::string::npos);
  edited.insert(pos + 15, "  # comment");
  const auto responses = daemon_session(
      {load_request(), R"({"cmd":"verify","jobs":1})",
       update_request(path("valve.py"), edited),
       R"({"cmd":"verify","jobs":1})", R"({"cmd":"stats"})"});
  ASSERT_EQ(responses.size(), 5u);
  const JsonValue& update = responses[2];
  EXPECT_TRUE(update.at("changed").as_array().empty());
  EXPECT_EQ(update.at("invalidated").as_number(), 0);
  const JsonValue& queries = responses[4].at("queries");
  EXPECT_EQ(queries.at("report_hits").as_number(), 5);
}

TEST_F(DaemonTest, SingleClassVerifyMatchesColdCli) {
  CliOptions options;
  options.files = paper_paths();
  options.jobs = 1;
  options.verify_class = "BadSector";
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int cold_status = run_tool(options, in, out, err);

  const auto responses = daemon_session(
      {load_request(), R"({"cmd":"verify","class":"BadSector"})"});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& verify = responses[1];
  EXPECT_EQ(verify.at("output").as_string(), out.str());
  EXPECT_EQ(static_cast<int>(verify.at("status").as_number()), cold_status);
}

TEST_F(DaemonTest, RepeatedRequestsDoNotAccumulateDiagnostics) {
  // The sink rewinds between requests: asking for the same failing class
  // three times yields the same bytes three times.
  const auto responses = daemon_session(
      {load_request(), R"({"cmd":"verify","class":"BadSector"})",
       R"({"cmd":"verify","class":"BadSector"})",
       R"({"cmd":"verify","class":"BadSector"})"});
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(responses[i].at("output").as_string(),
              responses[1].at("output").as_string());
    EXPECT_EQ(responses[i].at("errors").as_string(),
              responses[1].at("errors").as_string());
  }
}

TEST_F(DaemonTest, MalformedRequestIsAnErrorResponseNotACrash) {
  const auto responses = daemon_session(
      {"this is not json", R"({"no_cmd":true})",
       R"({"cmd":"fly"})", R"({"cmd":"version"})"});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_FALSE(responses[2].at("ok").as_bool());
  EXPECT_NE(responses[2].at("error").as_string().find("unknown command"),
            std::string::npos);
  EXPECT_TRUE(responses[3].at("ok").as_bool());  // the session survived
}

TEST_F(DaemonTest, DeeplyNestedRequestIsAnErrorResponseNotACrash) {
  const auto responses = daemon_session(
      {std::string(200000, '['), R"({"cmd":"version"})"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_NE(responses[0].at("error").as_string().find("recursion limit"),
            std::string::npos);
  EXPECT_TRUE(responses[1].at("ok").as_bool());  // the session survived
}

TEST_F(DaemonTest, ShutdownEndsTheLoop) {
  const auto responses = daemon_session(
      {R"({"cmd":"shutdown"})", R"({"cmd":"version"})"});
  // The second request is never answered.
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
}

TEST_F(DaemonTest, LoadReportsPerFileOutcomes) {
  const auto responses = daemon_session({[&] {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("load");
    writer.key("files").begin_array();
    writer.value(path("valve.py"));
    writer.value(path("missing.py"));
    writer.end_array();
    writer.end_object();
    return writer.str();
  }()});
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue& load = responses[0];
  EXPECT_TRUE(load.at("ok").as_bool());
  EXPECT_EQ(static_cast<int>(load.at("status").as_number()), 2);
  const auto& files = load.at("files").as_array();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_TRUE(files[0].at("loaded").as_bool());
  EXPECT_FALSE(files[1].at("loaded").as_bool());
  EXPECT_EQ(files[1].at("failure").as_string(), "cannot open file");
  EXPECT_NE(load.at("errors").as_string().find("cannot open"),
            std::string::npos);
}

TEST_F(DaemonTest, MonitorChecksInlineEventsAgainstTheValveSpec) {
  const auto responses = daemon_session(
      {load_request(),
       R"({"cmd":"monitor","class":"Valve","events":[)"
       R"({"device":"a","op":"test"},{"device":"b","op":"test"},)"
       R"({"device":"a","op":"open"},{"device":"b","op":"clean"},)"
       R"({"device":"a","op":"close"}]})"});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& reply = responses[1];
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("class").as_string(), "Valve");
  EXPECT_EQ(reply.at("events").as_number(), 5);
  EXPECT_EQ(reply.at("ok_events").as_number(), 5);
  EXPECT_EQ(reply.at("violations").as_number(), 0);
  EXPECT_EQ(reply.at("malformed").as_number(), 0);
  EXPECT_EQ(reply.at("devices").as_number(), 2);
  EXPECT_EQ(reply.at("completed_devices").as_number(), 2);
  EXPECT_EQ(reply.at("violated_devices").as_number(), 0);
  EXPECT_EQ(reply.at("incomplete_devices").as_number(), 0);
  EXPECT_TRUE(reply.at("reports").as_array().empty());
}

TEST_F(DaemonTest, MonitorReportsViolationsWithSourceLocations) {
  const auto responses = daemon_session(
      {load_request(),
       R"({"cmd":"monitor","class":"Valve","events":[)"
       R"({"device":"v","op":"test"},{"device":"v","op":"open"},)"
       R"({"device":"v","op":"close"},{"device":"v","op":"close"}]})"});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& reply = responses[1];
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("violations").as_number(), 1);
  EXPECT_EQ(reply.at("violated_devices").as_number(), 1);
  const auto& reports = reply.at("reports").as_array();
  ASSERT_EQ(reports.size(), 1u);
  const JsonValue& report = reports[0];
  EXPECT_EQ(report.at("index").as_number(), 3);  // global event index
  EXPECT_EQ(report.at("device").as_string(), "v");
  EXPECT_EQ(report.at("device_index").as_number(), 3);
  EXPECT_EQ(report.at("op").as_string(), "close");
  // `close` is declared in valve.py, so the report carries its location.
  EXPECT_GT(report.at("line").as_number(), 0);
  EXPECT_GT(report.at("column").as_number(), 0);
  const auto& allowed = report.at("allowed").as_array();
  ASSERT_EQ(allowed.size(), 1u);  // after close only test may follow
  EXPECT_EQ(allowed[0].as_string(), "test");
}

TEST_F(DaemonTest, MonitorAcceptsNdjsonBlobsAndCountsMalformedLines) {
  const auto responses = daemon_session(
      {load_request(), [] {
         JsonWriter writer;
         writer.begin_object();
         writer.key("cmd").value("monitor");
         writer.key("class").value("Valve");
         writer.key("shards").value(std::uint64_t{3});
         writer.key("ndjson").value(
             "{\"device\":\"x\",\"op\":\"test\"}\n"
             "not json at all\n" +
             std::string(200000, '[') + "\n"
             "{\"device\":\"x\",\"op\":\"clean\"}");  // no trailing newline
         writer.end_object();
         return writer.str();
       }()});
  ASSERT_EQ(responses.size(), 2u);
  const JsonValue& reply = responses[1];
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("events").as_number(), 2);
  EXPECT_EQ(reply.at("ok_events").as_number(), 2);
  EXPECT_EQ(reply.at("malformed").as_number(), 2);
  EXPECT_EQ(reply.at("completed_devices").as_number(), 1);
}

TEST_F(DaemonTest, MonitorUnknownClassIsAnErrorResponse) {
  const auto responses = daemon_session(
      {load_request(),
       R"({"cmd":"monitor","class":"Ghost","events":[]})",
       R"({"cmd":"version"})"});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_NE(responses[1].at("error").as_string().find("unknown class"),
            std::string::npos);
  EXPECT_TRUE(responses[2].at("ok").as_bool());  // the session survived
}

TEST_F(DaemonTest, MonitorMemoizesTheCompiledTableAcrossRequests) {
  const std::string monitor_request =
      R"({"cmd":"monitor","class":"Valve","events":[)"
      R"({"device":"m","op":"test"}]})";
  const auto responses = daemon_session(
      {load_request(), monitor_request, monitor_request,
       R"({"cmd":"stats"})"});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[1].at("ok").as_bool());
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  const JsonValue& queries = responses[3].at("queries");
  EXPECT_EQ(queries.at("table_misses").as_number(), 1);
  EXPECT_EQ(queries.at("table_hits").as_number(), 1);
}

/// One event stream for the monitor "file" form, in three encodings: an
/// NDJSON text whose lines straddle the reader's 1 MiB chunk boundary,
/// carry a 3 MiB line and end without a newline; the same events as SMEV
/// frames (one of them over 1 MiB); and the event list itself.
struct MonitorStream {
  std::string ndjson;
  std::string binary;
};

MonitorStream monitor_stream() {
  static const char* const kOps[] = {"test", "open", "close", "test",
                                     "clean", "open", "bogus"};
  std::vector<std::string> devices;
  for (int d = 0; d < 997; ++d) devices.push_back("dev" + std::to_string(d));
  const std::vector<std::string> ops(std::begin(kOps), std::end(kOps));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> events;
  MonitorStream stream;
  constexpr std::uint32_t kEvents = 200000;
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    const auto device =
        static_cast<std::uint32_t>((i * 7919u) % devices.size());
    const auto op =
        static_cast<std::uint32_t>((i / devices.size() + i % 3) % ops.size());
    events.emplace_back(device, op);
    stream.ndjson += "{\"device\":\"" + devices[device] + "\",\"op\":\"" +
                     ops[op] + "\"";
    if (i == 40000) {
      stream.ndjson += ",\"pad\":\"" + std::string(3u << 20, 'p') + "\"";
    }
    stream.ndjson += "}";
    if (i + 1 < kEvents) stream.ndjson += "\n";  // the last line stays open
  }
  std::size_t from = 0;
  for (const std::size_t cut : {150000u, 151000u, kEvents}) {
    stream.binary += monitor::encode_binary_frame(
        devices, ops, {events.begin() + from, events.begin() + cut});
    from = cut;
  }
  return stream;
}

std::string monitor_request(const std::string& form,
                            const std::string& value,
                            const char* format = nullptr) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("cmd").value("monitor");
  writer.key("class").value("Valve");
  writer.key("shards").value(std::uint64_t{2});
  writer.key(form).value(value);
  if (format != nullptr) writer.key("format").value(format);
  writer.end_object();
  return writer.str();
}

/// The raw reply lines of one in-process stdio daemon session.  Its
/// request lines may run past the 8 MiB default input limit (the blob
/// request is 11.4 MB), so the session raises the limit to 64 MiB.
std::vector<std::string> raw_replies(const std::vector<std::string>& requests) {
  CliOptions session;
  session.jobs = 1;
  session.max_input_bytes = std::size_t{64} << 20;
  std::string input;
  for (const std::string& request : requests) input += request + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_daemon(session, in, out, err), 0);
  std::vector<std::string> replies;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) replies.push_back(line);
  return replies;
}

TEST_F(DaemonTest, MonitorFileAnswersLikeTheNdjsonBlob) {
  const MonitorStream stream = monitor_stream();
  write_file("events.ndjson", stream.ndjson);
  const auto replies = raw_replies(
      {load_request(), monitor_request("ndjson", stream.ndjson),
       monitor_request("file", path("events.ndjson")),
       monitor_request("file", path("events.ndjson"), "ndjson")});
  ASSERT_EQ(replies.size(), 4u);
  const JsonValue blob = parse_json(replies[1]);
  ASSERT_TRUE(blob.at("ok").as_bool());
  EXPECT_EQ(blob.at("events").as_number(), 200000);
  EXPECT_GT(blob.at("violations").as_number(), 0);
  EXPECT_EQ(replies[2], replies[1]);
  EXPECT_EQ(replies[3], replies[1]);
}

TEST_F(DaemonTest, MonitorBinaryFileAnswersLikeTheNdjsonBlob) {
  const MonitorStream stream = monitor_stream();
  write_file("events.smev", stream.binary);
  const auto replies = raw_replies(
      {load_request(), monitor_request("ndjson", stream.ndjson),
       monitor_request("file", path("events.smev"), "binary")});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(parse_json(replies[1]).at("ok").as_bool());
  EXPECT_EQ(replies[2], replies[1]);
}

TEST_F(DaemonTest, OverLongLineGetsTheSocketErrorAndTheSessionKeepsServing) {
  // Framed exactly like the socket reader: one '\r' before the '\n' is
  // stripped, blank lines are skipped, a line over the bound gets the
  // socket's error text and is dropped, and an unterminated last line
  // still counts.
  CliOptions session;
  session.max_input_bytes = 65536;
  std::istringstream in(std::string(1u << 20, 'a') + "\n\r\n\n" +
                        R"({"cmd":"version"})" + "\r\n" +
                        R"({"cmd":"version"})");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_daemon(session, in, out, err), 0);
  std::vector<std::string> replies;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) replies.push_back(line);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0],
            R"x({"ok":false,"error":"request line exceeds the input limit )x"
            R"x(of 65536 bytes (--max-input-bytes)"})x");
  EXPECT_EQ(parse_json(replies[1]).at("version").as_string(),
            core::kToolchainVersion);
  EXPECT_EQ(replies[2], replies[1]);
}

TEST_F(DaemonTest, MonitorBinaryFileCutMidFrameIsAnError) {
  const MonitorStream stream = monitor_stream();
  write_file("cut.smev", stream.binary.substr(0, stream.binary.size() - 5));
  const auto responses = daemon_session(
      {load_request(), monitor_request("file", path("cut.smev"), "binary"),
       R"({"cmd":"version"})"});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_NE(responses[1].at("error").as_string().find(
                "event file ends mid-frame"),
            std::string::npos);
  EXPECT_TRUE(responses[2].at("ok").as_bool());  // the session survived
}

}  // namespace
}  // namespace shelley::engine
