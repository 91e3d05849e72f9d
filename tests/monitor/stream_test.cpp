// StreamChecker (monitor/stream.hpp): NDJSON and SMEV ingestion, partial
// chunk carrying, shard-count determinism, violation-report contents,
// latching, the deferred ingest_event/flush path, report capping with
// dropped accounting, the adversarial binary surface (bad magic,
// truncation, out-of-range records check nothing), chunk splits at every
// byte, the allocation-free decode of known devices, and the data-plane
// metrics.
#include "monitor/stream.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fsm/ops.hpp"
#include "fsm/table.hpp"
#include "paper_sources.hpp"
#include "shelley/automata.hpp"
#include "shelley/spec.hpp"
#include "support/alloc.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "upy/parser.hpp"

namespace shelley::monitor {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const upy::Module module = upy::parse_module(examples::kValveSource);
    DiagnosticEngine diagnostics;
    spec_ = core::extract_class_spec(module.classes.at(0), diagnostics);
    const fsm::Dfa dfa =
        fsm::minimize(fsm::determinize(core::usage_nfa(spec_, symbols_)));
    table_ = fsm::CompiledDfa::compile(dfa, symbols_);
  }

  StreamChecker make_checker(std::size_t shards = 1,
                             std::size_t max_violations = 1024) {
    StreamChecker::Options options;
    options.shards = shards;
    options.max_violations = max_violations;
    StreamChecker checker(table_, options);
    std::unordered_map<std::string, SourceLoc> locations;
    for (const core::Operation& op : spec_.operations) {
      locations.emplace(op.name, op.loc);
    }
    checker.set_source_locations(std::move(locations));
    return checker;
  }

  core::ClassSpec spec_;
  SymbolTable symbols_;
  fsm::CompiledDfa table_;
};

std::string line(const char* device, const char* op) {
  return std::string("{\"device\":\"") + device + "\",\"op\":\"" + op +
         "\"}\n";
}

TEST_F(StreamTest, NdjsonCleanStream) {
  StreamChecker checker = make_checker();
  const std::string chunk = line("v1", "test") + line("v1", "open") +
                            line("v2", "test") + line("v1", "close") +
                            line("v2", "clean");
  EXPECT_EQ(checker.ingest_ndjson(chunk), chunk.size());
  EXPECT_EQ(checker.stats().events, 5u);
  EXPECT_EQ(checker.stats().ok, 5u);
  EXPECT_EQ(checker.stats().violations, 0u);
  EXPECT_EQ(checker.stats().devices, 2u);
  EXPECT_EQ(checker.completed_devices(), 2u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST_F(StreamTest, PartialTrailingLineIsNotConsumed) {
  StreamChecker checker = make_checker();
  const std::string full = line("v1", "test");
  const std::string chunk = full + "{\"device\":\"v1\",\"op\":\"op";
  EXPECT_EQ(checker.ingest_ndjson(chunk), full.size());
  EXPECT_EQ(checker.stats().events, 1u);
}

TEST_F(StreamTest, ViolationReportCarriesDiagnostics) {
  StreamChecker checker = make_checker();
  checker.ingest_ndjson(line("v1", "test") + line("v1", "close") +
                        line("v1", "test"));
  EXPECT_EQ(checker.stats().violations, 2u);  // latched repeat counts
  ASSERT_EQ(checker.violations().size(), 1u);  // but reports once
  const Violation& report = checker.violations()[0];
  EXPECT_EQ(report.event_index, 1u);
  EXPECT_EQ(report.device_event_index, 1u);
  EXPECT_EQ(report.device, "v1");
  EXPECT_EQ(report.operation, "close");
  EXPECT_TRUE(report.loc.known());  // close is a declared operation
  EXPECT_EQ(report.allowed,
            (std::vector<std::string>{"open", "clean"}));
  EXPECT_EQ(checker.violated_devices(), 1u);
  EXPECT_EQ(checker.completed_devices(), 0u);
}

TEST_F(StreamTest, UnknownOperationViolatesWithoutMoving) {
  StreamChecker checker = make_checker();
  checker.ingest_ndjson(line("v1", "explode"));
  ASSERT_EQ(checker.violations().size(), 1u);
  const Violation& report = checker.violations()[0];
  EXPECT_EQ(report.operation, "explode");
  EXPECT_FALSE(report.loc.known());  // not a declared operation
  // The allowed set is that of the *unmoved* state: still just "test".
  EXPECT_EQ(report.allowed, (std::vector<std::string>{"test"}));
}

TEST_F(StreamTest, MalformedLinesAreCountedNotFatal) {
  StreamChecker checker = make_checker();
  const std::string chunk = line("v1", "test") + "not json\n" +
                            "{\"device\":\"v1\"}\n" +
                            "{\"device\":3,\"op\":\"test\"}\n" + "\n" +
                            line("v1", "open");
  EXPECT_EQ(checker.ingest_ndjson(chunk), chunk.size());
  EXPECT_EQ(checker.stats().events, 2u);
  EXPECT_EQ(checker.stats().malformed, 3u);  // blank line is skipped silently
  EXPECT_EQ(checker.stats().ok, 2u);
}

TEST_F(StreamTest, DeeplyNestedLineIsOneMalformedLine) {
  StreamChecker checker = make_checker();
  const std::string chunk =
      line("v1", "test") + std::string(200000, '[') + "\n" + line("v1", "open");
  EXPECT_EQ(checker.ingest_ndjson(chunk), chunk.size());
  EXPECT_EQ(checker.stats().malformed, 1u);
  // The line after it is still checked.
  EXPECT_EQ(checker.stats().events, 2u);
  EXPECT_EQ(checker.stats().ok, 2u);
}

TEST_F(StreamTest, IngestEventDefersUntilFlush) {
  StreamChecker checker = make_checker();
  checker.ingest_event("v1", "test");
  checker.ingest_event("v1", "open");
  EXPECT_EQ(checker.stats().events, 0u);  // batched, not yet checked
  checker.flush();
  EXPECT_EQ(checker.stats().events, 2u);
  EXPECT_EQ(checker.stats().ok, 2u);
}

TEST_F(StreamTest, BinaryFrameMatchesNdjson) {
  const std::vector<std::string> devices = {"v1", "v2"};
  const std::vector<std::string> ops = {"test", "open", "close", "clean"};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> events = {
      {0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 2}};  // v2 close: violation
  const std::string frame = encode_binary_frame(devices, ops, events);

  StreamChecker binary = make_checker();
  EXPECT_EQ(ingest_binary_stream(binary, frame), frame.size());

  StreamChecker ndjson = make_checker();
  ndjson.ingest_ndjson(line("v1", "test") + line("v1", "open") +
                       line("v2", "test") + line("v1", "close") +
                       line("v2", "close"));

  EXPECT_EQ(binary.stats().events, ndjson.stats().events);
  EXPECT_EQ(binary.stats().ok, ndjson.stats().ok);
  EXPECT_EQ(binary.stats().violations, ndjson.stats().violations);
  ASSERT_EQ(binary.violations().size(), ndjson.violations().size());
  for (std::size_t i = 0; i < binary.violations().size(); ++i) {
    EXPECT_EQ(binary.violations()[i].event_index,
              ndjson.violations()[i].event_index);
    EXPECT_EQ(binary.violations()[i].device, ndjson.violations()[i].device);
    EXPECT_EQ(binary.violations()[i].operation,
              ndjson.violations()[i].operation);
    EXPECT_EQ(binary.violations()[i].allowed, ndjson.violations()[i].allowed);
  }
}

TEST_F(StreamTest, PartialBinaryFrameIsNotConsumed) {
  const std::string frame = encode_binary_frame(
      {"v1"}, {"test"}, {{0, 0}});
  StreamChecker checker = make_checker();
  // Header only: nothing consumed.
  EXPECT_EQ(ingest_binary_stream(checker, frame.substr(0, 12)), 0u);
  // Header + half the body: still nothing.
  EXPECT_EQ(ingest_binary_stream(checker, frame.substr(0, frame.size() - 1)),
            0u);
  EXPECT_EQ(checker.stats().events, 0u);
  // Whole frame plus the prefix of a second: exactly one frame consumed.
  const std::string two = frame + frame.substr(0, 7);
  EXPECT_EQ(ingest_binary_stream(checker, two), frame.size());
  EXPECT_EQ(checker.stats().events, 1u);
}

TEST_F(StreamTest, BadMagicThrows) {
  std::string frame = encode_binary_frame({"v1"}, {"test"}, {{0, 0}});
  frame[0] = 'X';
  StreamChecker checker = make_checker();
  EXPECT_THROW((void)ingest_binary_stream(checker, frame),
               support::BinaryFormatError);
}

TEST_F(StreamTest, OutOfRangeRecordChecksNothing) {
  // An event referencing a device index past the frame's table must reject
  // the whole frame atomically: no event of the frame is checked.
  std::string frame = encode_binary_frame(
      {"v1"}, {"test"}, {{0, 0}, {1, 0}});
  StreamChecker checker = make_checker();
  EXPECT_THROW(checker.ingest_binary(frame.substr(12)),
               support::BinaryFormatError);
  EXPECT_EQ(checker.stats().events, 0u);
  EXPECT_EQ(checker.stats().ok, 0u);
  // The checker remains usable after the reject.
  checker.ingest_ndjson(line("v1", "test"));
  EXPECT_EQ(checker.stats().events, 1u);
}

TEST_F(StreamTest, RejectedFrameRegistersNoDevice) {
  // A frame rejected with BinaryFormatError checks nothing, so its device
  // table must not reach the fleet either: after it, one valid event on a
  // third device leaves exactly that device, counted exactly as a checker
  // that never saw the frame counts it.
  const std::string frame =
      encode_binary_frame({"v1", "v2"}, {"test"}, {{0, 0}, {2, 0}});
  StreamChecker checker = make_checker();
  EXPECT_THROW(checker.ingest_binary(frame.substr(12)),
               support::BinaryFormatError);
  checker.ingest_ndjson(line("v3", "test"));
  StreamChecker fresh = make_checker();
  fresh.ingest_ndjson(line("v3", "test"));
  EXPECT_EQ(checker.stats().devices, 1u);
  EXPECT_EQ(checker.completed_devices(), fresh.completed_devices());
  EXPECT_EQ(checker.incomplete_devices(), fresh.incomplete_devices());
}

TEST_F(StreamTest, TruncatedBodyThrows) {
  const std::string frame = encode_binary_frame({"v1"}, {"test"}, {{0, 0}});
  const std::string body = frame.substr(12);
  StreamChecker checker = make_checker();
  for (std::size_t length = 0; length < body.size(); ++length) {
    EXPECT_THROW(checker.ingest_binary(body.substr(0, length)),
                 support::BinaryFormatError);
  }
}

TEST_F(StreamTest, ShardCountDoesNotChangeResults) {
  // A stream over many devices with interleaved violations: every shard
  // count must agree on counters, per-device verdicts, and the exact
  // report sequence.
  std::string chunk;
  for (int i = 0; i < 40; ++i) {
    const std::string device = "dev" + std::to_string(i % 10);
    switch (i % 4) {
      case 0: chunk += line(device.c_str(), "test"); break;
      case 1: chunk += line(device.c_str(), "open"); break;
      case 2: chunk += line(device.c_str(), "close"); break;
      case 3: chunk += line(device.c_str(), i % 8 == 3 ? "close" : "test");
    }
  }
  StreamChecker one = make_checker(1);
  one.ingest_ndjson(chunk);
  for (const std::size_t shards : {2u, 3u, 7u, 16u}) {
    StreamChecker many = make_checker(shards);
    many.ingest_ndjson(chunk);
    EXPECT_EQ(many.shard_count(), shards);
    EXPECT_EQ(many.stats().events, one.stats().events);
    EXPECT_EQ(many.stats().ok, one.stats().ok);
    EXPECT_EQ(many.stats().violations, one.stats().violations);
    EXPECT_EQ(many.completed_devices(), one.completed_devices());
    EXPECT_EQ(many.violated_devices(), one.violated_devices());
    EXPECT_EQ(many.incomplete_devices(), one.incomplete_devices());
    ASSERT_EQ(many.violations().size(), one.violations().size());
    for (std::size_t i = 0; i < one.violations().size(); ++i) {
      EXPECT_EQ(many.violations()[i].event_index,
                one.violations()[i].event_index);
      EXPECT_EQ(many.violations()[i].device, one.violations()[i].device);
      EXPECT_EQ(many.violations()[i].operation,
                one.violations()[i].operation);
    }
  }
}

TEST_F(StreamTest, MaxViolationsCapsReportsAndCountsDrops) {
  // 8 devices all violate immediately; only the first 3 reports (in global
  // event order) are retained, whatever the shard count.
  std::string chunk;
  for (int i = 0; i < 8; ++i) {
    chunk += line(("d" + std::to_string(i)).c_str(), "close");
  }
  for (const std::size_t shards : {1u, 5u}) {
    StreamChecker checker = make_checker(shards, 3);
    checker.ingest_ndjson(chunk);
    EXPECT_EQ(checker.stats().violations, 8u);
    EXPECT_EQ(checker.stats().violations_dropped, 5u);
    ASSERT_EQ(checker.violations().size(), 3u);
    EXPECT_EQ(checker.violations()[0].device, "d0");
    EXPECT_EQ(checker.violations()[1].device, "d1");
    EXPECT_EQ(checker.violations()[2].device, "d2");
  }
}

TEST_F(StreamTest, DevicesPersistAcrossBatches) {
  StreamChecker checker = make_checker(4);
  checker.ingest_ndjson(line("v1", "test"));
  checker.ingest_ndjson(line("v1", "open"));
  checker.ingest_ndjson(line("v1", "close"));
  EXPECT_EQ(checker.stats().events, 3u);
  EXPECT_EQ(checker.stats().ok, 3u);
  EXPECT_EQ(checker.completed_devices(), 1u);
  checker.ingest_ndjson(line("v1", "close"));  // close twice: violation
  EXPECT_EQ(checker.stats().violations, 1u);
}

/// Everything a checker reports: counters, fleet snapshot, and reports.
void expect_same_results(const StreamChecker& got,
                         const StreamChecker& want) {
  EXPECT_EQ(got.stats().events, want.stats().events);
  EXPECT_EQ(got.stats().ok, want.stats().ok);
  EXPECT_EQ(got.stats().violations, want.stats().violations);
  EXPECT_EQ(got.stats().malformed, want.stats().malformed);
  EXPECT_EQ(got.stats().devices, want.stats().devices);
  EXPECT_EQ(got.stats().violations_dropped, want.stats().violations_dropped);
  EXPECT_EQ(got.completed_devices(), want.completed_devices());
  EXPECT_EQ(got.violated_devices(), want.violated_devices());
  EXPECT_EQ(got.incomplete_devices(), want.incomplete_devices());
  ASSERT_EQ(got.violations().size(), want.violations().size());
  for (std::size_t i = 0; i < want.violations().size(); ++i) {
    const Violation& a = got.violations()[i];
    const Violation& b = want.violations()[i];
    EXPECT_EQ(a.event_index, b.event_index);
    EXPECT_EQ(a.device_event_index, b.device_event_index);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.operation, b.operation);
    EXPECT_EQ(a.allowed, b.allowed);
    EXPECT_EQ(a.loc.line, b.loc.line);
    EXPECT_EQ(a.loc.column, b.loc.column);
  }
}

TEST_F(StreamTest, SplittingTheStreamAtAnyByteChangesNothing) {
  // Names decode as views into the chunk, so nothing may still point into
  // the first chunk once its call returns: it is overwritten before the
  // rest arrives.
  const std::string events =
      line("v1", "test") + R"({"device":"v\u0032","op":"test"})" "\n" +
      "not json\n" + line("v1", "close") + "\n" +
      R"({"op":"clean","device":"v2"})" "\r\n" + line("a-long-device-name-3",
                                                     "explode") +
      R"({"dev\u0069ce":"v\u0031","op":"open"})" "\n" + line("v2", "test") +
      line("a-long-device-name-3", "test") + "{\"device\":\"v4\"";
  StreamChecker whole = make_checker(1, 2);
  const std::size_t whole_used = whole.ingest_ndjson(events);
  for (std::size_t cut = 0; cut <= events.size(); ++cut) {
    StreamChecker split = make_checker(1, 2);
    std::string first = events.substr(0, cut);
    const std::size_t used = split.ingest_ndjson(first);
    std::string rest = first.substr(used) + events.substr(cut);
    first.assign(first.size(), 'x');
    EXPECT_EQ(used + split.ingest_ndjson(rest), whole_used) << "cut " << cut;
    expect_same_results(split, whole);
  }
  EXPECT_EQ(whole.stats().malformed, 1u);
  EXPECT_EQ(whole.violations().size(), 2u);
}

TEST_F(StreamTest, KnownDevicesAllocateNothingPerLine) {
  // The data plane itself, without the metrics layer.
  const bool metrics_were_on = support::metrics::enabled();
  const bool trace_was_on = support::trace::enabled();
  support::metrics::set_enabled(false);
  support::trace::set_enabled(false);
  // 64 devices cycling test -> clean, both known operations.  The names
  // are longer than any short-string buffer, so a lookup that built a
  // std::string key would allocate.
  const auto batch = [](std::size_t lines) {
    std::string chunk;
    for (std::size_t i = 0; i < lines; ++i) {
      chunk += line(("irrigation-valve-" + std::to_string(i % 64)).c_str(),
                    (i / 64) % 2 == 0 ? "test" : "clean");
    }
    return chunk;
  };
  const auto second_batch_allocations = [&](std::size_t lines) {
    StreamChecker checker = make_checker();
    const std::string chunk = batch(lines);
    checker.ingest_ndjson(chunk);  // learns the devices
    const std::uint64_t before = support::alloc::allocation_count();
    checker.ingest_ndjson(chunk);
    const std::uint64_t spent = support::alloc::allocation_count() - before;
    EXPECT_EQ(checker.stats().ok, 2 * lines);
    return spent;
  };
  const std::uint64_t small = second_batch_allocations(1024);
  const std::uint64_t large = second_batch_allocations(4096);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 16u);
  support::metrics::set_enabled(metrics_were_on);
  support::trace::set_enabled(trace_was_on);
}

TEST_F(StreamTest, MetricsChargeEveryIngestCall) {
  namespace metrics = support::metrics;
  namespace trace = support::trace;
  const bool metrics_were_on = metrics::enabled();
  const bool trace_was_on = trace::enabled();
  // NDJSON (2 events, 1 violation, 1 malformed line), one SMEV frame and
  // one flush of deferred events: three ingest calls.
  const auto drive = [&](StreamChecker& checker) {
    checker.ingest_ndjson(line("v1", "test") + "not json\n" +
                          line("v1", "close"));
    const std::string frame = encode_binary_frame({"v2"}, {"test"}, {{0, 0}});
    EXPECT_EQ(ingest_binary_stream(checker, frame), frame.size());
    checker.ingest_event("v3", "test");
    checker.flush();
  };
  metrics::set_enabled(false);
  trace::set_enabled(false);
  StreamChecker plain = make_checker();
  drive(plain);

  metrics::set_enabled(true);
  metrics::reset();
  trace::set_enabled(true);
  trace::reset();
  StreamChecker metered = make_checker();
  drive(metered);
  const std::string chrome = trace::to_chrome_json();
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : metrics::counter_snapshot()) {
    counters[name] = value;
  }
  std::uint64_t batches = 0;
  for (const auto& [name, snap] : metrics::histogram_snapshot()) {
    if (name == "monitor.batch_us") batches = snap.count;
  }
  metrics::set_enabled(metrics_were_on);
  metrics::reset();
  trace::set_enabled(trace_was_on);
  trace::reset();

  EXPECT_EQ(counters["monitor.events"], 4u);
  EXPECT_EQ(counters["monitor.accepted"], 3u);
  EXPECT_EQ(counters["monitor.violations"], 1u);
  EXPECT_EQ(counters["monitor.malformed"], 1u);
  EXPECT_EQ(batches, 3u);
  std::size_t spans = 0;
  for (std::size_t at = chrome.find("\"monitor.ingest\"");
       at != std::string::npos;
       at = chrome.find("\"monitor.ingest\"", at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, 3u);
  // Metering changes no verdict.
  expect_same_results(metered, plain);
}

}  // namespace
}  // namespace shelley::monitor
