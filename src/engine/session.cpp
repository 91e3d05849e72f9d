#include "engine/session.hpp"

#include <exception>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/render.hpp"
#include "monitor/stream.hpp"
#include "shelley/cache.hpp"
#include "shelley/fingerprint.hpp"
#include "support/guard.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::engine {

namespace {

namespace log = support::log;
namespace metrics = support::metrics;
namespace trace = support::trace;

std::atomic<bool> g_fail_next_run{false};

void write_error(JsonWriter& writer, const std::string& message) {
  writer.begin_object();
  writer.key("ok").value(false);
  writer.key("error").value(message);
  writer.end_object();
}

void write_file_summaries(JsonWriter& writer,
                          const std::vector<core::FileSummary>& summaries,
                          std::size_t first) {
  writer.key("files").begin_array();
  for (std::size_t i = first; i < summaries.size(); ++i) {
    const core::FileSummary& file = summaries[i];
    writer.begin_object();
    writer.key("path").value(file.path);
    writer.key("loaded").value(file.loaded);
    writer.key("parse_errors")
        .value(static_cast<std::uint64_t>(file.parse_errors));
    if (!file.failure.empty()) writer.key("failure").value(file.failure);
    writer.end_object();
  }
  writer.end_array();
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// Every registered histogram: summary stats, estimated quantiles, and the
/// sparse bucket array as [upper_bound, count] pairs.
void write_histograms(JsonWriter& writer) {
  writer.key("histograms").begin_object();
  for (const auto& [name, snap] : metrics::histogram_snapshot()) {
    writer.key(name).begin_object();
    writer.key("count").value(snap.count);
    writer.key("sum").value(snap.sum);
    writer.key("min").value(snap.min);
    writer.key("max").value(snap.max);
    writer.key("p50").value(snap.quantile(0.50));
    writer.key("p90").value(snap.quantile(0.90));
    writer.key("p99").value(snap.quantile(0.99));
    writer.key("buckets").begin_array();
    for (std::size_t i = 0; i < metrics::Histogram::kBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      writer.begin_array();
      writer.value(metrics::Histogram::bucket_upper_bound(i));
      writer.value(snap.buckets[i]);
      writer.end_array();
    }
    writer.end_array();
    writer.end_object();
  }
  writer.end_object();
}

/// Claims `name` in `used`, disambiguating collisions with a
/// deterministic "_2", "_3", ... suffix.  Distinct registry series whose
/// sanitized names coincide (e.g. "a.b_us" and "a_b.us" both map to
/// "shelley_a_b_us") would otherwise emit duplicate "# TYPE" lines --
/// invalid 0.0.4 exposition.  Deterministic because every caller iterates
/// the registry snapshots in name-sorted order.
std::string unique_metric_name(std::string name,
                               std::set<std::string>& used) {
  if (used.insert(name).second) return name;
  for (int suffix = 2;; ++suffix) {
    std::string candidate = name + "_" + std::to_string(suffix);
    if (used.insert(candidate).second) return candidate;
  }
}

/// The reply to a request line longer than the input limit.
std::string line_too_long_reply(std::size_t limit) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("ok").value(false);
  writer.key("error").value("request line exceeds the input limit of " +
                            std::to_string(limit) +
                            " bytes (--max-input-bytes)");
  writer.end_object();
  return writer.str();
}

}  // namespace

void read_request_lines(
    const std::function<std::size_t(char* data, std::size_t size)>& read,
    const std::function<bool(std::string line)>& on_line,
    const std::function<void(const std::string& reply)>& reject) {
  const std::size_t max_line = support::guard::limits().max_input_bytes;
  std::string buffer;
  bool discarding = false;
  char chunk[4096];
  for (std::size_t got; (got = read(chunk, sizeof chunk)) > 0;) {
    const std::size_t searched = buffer.size();
    buffer.append(chunk, got);
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', searched);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      if (discarding) {
        discarding = false;  // the over-long line ends here
        continue;
      }
      if (line.size() > max_line) {
        reject(line_too_long_reply(max_line));
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      std::string request;
      if (start == buffer.size() && line.data() == buffer.data()) {
        // The line is the whole buffer: hand it over without a copy.
        buffer.resize(line.size());
        request = std::move(buffer);
        buffer.clear();
        start = 0;
      } else {
        request.assign(line);
      }
      if (!on_line(std::move(request))) return;
    }
    buffer.erase(0, start);
    if (!discarding && buffer.size() > max_line) {
      reject(line_too_long_reply(max_line));
      discarding = true;
    }
    if (discarding) buffer.clear();
  }
}

std::size_t read_line_piece(std::istream& in, char* data, std::size_t size) {
  // One byte stays free for the '\n' that ends a last line at end of input.
  in.getline(data, static_cast<std::streamsize>(size - 1));
  std::size_t got = static_cast<std::size_t>(in.gcount());
  if (in.bad()) return 0;
  if (in.eof()) {
    if (got > 0) data[got++] = '\n';
    return got;
  }
  if (in.fail()) {
    in.clear();  // `data` is full and the line goes on
    return got;
  }
  data[got - 1] = '\n';  // getline counted the '\n' but did not store it
  return got;
}

namespace testing {
void fail_next_run(bool fail) {
  g_fail_next_run.store(fail, std::memory_order_relaxed);
}
}  // namespace testing

/// The handler implementation.  A friend struct rather than member
/// functions so the wire surface stays out of the public header.
struct SessionAccess {
  static void handle_load(Session& session, const JsonValue& request,
                          JsonWriter& writer) {
    const JsonValue& files = request.at("files");
    const std::size_t first = session.workspace_.summaries().size();
    std::vector<std::string> paths;
    for (const JsonValue& file : files.as_array()) {
      paths.push_back(file.as_string());
    }
    std::ostringstream errors;
    load_inputs(session.workspace_, paths, errors);
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("status")
        .value(static_cast<std::int64_t>(
            session.workspace_.load_failed() ? 2 : 0));
    writer.key("errors").value(errors.str());
    write_file_summaries(writer, session.workspace_.summaries(), first);
    writer.end_object();
  }

  static void handle_update(Session& session, const JsonValue& request,
                            JsonWriter& writer) {
    const std::string path = request.at("file").as_string();
    std::optional<std::string> text;
    if (const JsonValue* value = request.find("text")) {
      text = value->as_string();
    }
    const UpdateResult update =
        session.workspace_.update_source(path, std::move(text));
    const std::size_t dropped = session.engine_.apply_update(update);
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("status")
        .value(static_cast<std::int64_t>(
            session.workspace_.load_failed() ? 2 : 0));
    // The full reload stderr: what a cold shelleyc run over the updated
    // sources writes while loading.
    writer.key("errors").value(render_load_errors(
        session.workspace_.summaries(), session.workspace_.file_diag_ranges(),
        session.workspace_.verifier().diagnostics().diagnostics()));
    writer.key("changed").begin_array();
    for (const std::string& name : update.changed) {
      writer.value(name);
    }
    writer.end_array();
    writer.key("invalidated").value(static_cast<std::uint64_t>(dropped));
    writer.end_object();
  }

  static void handle_run(Session& session, const JsonValue& request,
                         bool json, JsonWriter& writer) {
    CliOptions options = session.defaults_;
    options.json = json;
    options.verify_class.reset();
    if (const JsonValue* name = request.find("class")) {
      options.verify_class = name->as_string();
    }
    if (const JsonValue* jobs = request.find("jobs")) {
      options.jobs = static_cast<std::size_t>(jobs->as_number());
    }
    if (const JsonValue* stats = request.find("stats")) {
      options.stats = stats->as_bool();
    }
    std::istringstream no_stdin;
    std::ostringstream out;
    std::ostringstream errors;
    int status = 2;
    try {
      if (g_fail_next_run.exchange(false, std::memory_order_relaxed)) {
        throw std::runtime_error("injected run failure (testing hook)");
      }
      status = run_cli(options, session.engine_, no_stdin, out, errors);
    } catch (const std::exception& error) {
      // A run_cli throw is a failure of the request, not a status-2
      // verification result: rewind so the next request still renders
      // like a cold run, then surface the failure to the request
      // boundary, which counts it in request_errors, emits the
      // request.error log line, and answers {"ok":false,...}.
      session.workspace_.rewind_to_loaded();
      throw std::runtime_error(std::string("shelleyc: internal error: ") +
                               error.what());
    } catch (...) {
      session.workspace_.rewind_to_loaded();
      throw std::runtime_error("shelleyc: internal error");
    }
    // Rewind to the post-load state so the next request's diagnostics
    // render exactly like a cold run -- report_to_json emits every
    // diagnostic in the sink, so accumulation would break byte-identity.
    session.workspace_.rewind_to_loaded();
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("status").value(static_cast<std::int64_t>(status));
    writer.key("output").value(out.str());
    writer.key("errors").value(errors.str());
    writer.end_object();
  }

  /// The streaming-monitor command: compiles the class's monitoring table
  /// through the tiered compiled_table() query, then checks the request's
  /// events -- an inline {"device","op"} array, a raw NDJSON blob
  /// ("ndjson"), or a file ("file" + optional "format" of "ndjson" or
  /// "binary") -- through a sharded StreamChecker.
  static void handle_monitor(Session& session, const JsonValue& request,
                             JsonWriter& writer) {
    const std::string& name = request.at("class").as_string();
    const core::ClassSpec* spec =
        session.workspace_.verifier().find_class(name);
    if (spec == nullptr) {
      write_error(writer, "unknown class '" + name + "'");
      return;
    }
    monitor::StreamChecker::Options options;
    if (const JsonValue* shards = request.find("shards")) {
      options.shards = static_cast<std::size_t>(shards->as_number());
    }
    if (const JsonValue* cap = request.find("max_violations")) {
      options.max_violations = static_cast<std::size_t>(cap->as_number());
    }
    monitor::StreamChecker checker(session.engine_.compiled_table(*spec),
                                   options);
    std::unordered_map<std::string, SourceLoc> locations;
    for (const core::Operation& op : spec->operations) {
      locations.emplace(op.name, op.loc);
    }
    checker.set_source_locations(std::move(locations));

    if (const JsonValue* events = request.find("events")) {
      for (const JsonValue& event : events->as_array()) {
        checker.ingest_event(event.at("device").as_string(),
                             event.at("op").as_string());
      }
      checker.flush();
    } else if (const JsonValue* ndjson = request.find("ndjson")) {
      // Checked in place; only an unterminated last line is copied, to
      // give it the '\n' the decoder needs.
      const std::string& text = ndjson->as_string();
      const std::size_t consumed = checker.ingest_ndjson(text);
      if (consumed < text.size()) {
        checker.ingest_ndjson(text.substr(consumed) + '\n');
      }
    } else if (const JsonValue* file = request.find("file")) {
      std::ifstream input(file->as_string(), std::ios::binary);
      if (!input) {
        write_error(writer,
                    "cannot open event file '" + file->as_string() + "'");
        return;
      }
      const JsonValue* format = request.find("format");
      if (format != nullptr && format->as_string() == "binary") {
        if (!monitor::pump(input, false, [&](std::string_view buffer) {
              return monitor::ingest_binary_stream(checker, buffer);
            })) {
          throw support::BinaryFormatError("event file ends mid-frame");
        }
      } else {
        monitor::pump(input, true, [&](std::string_view buffer) {
          return checker.ingest_ndjson(buffer);
        });
      }
    } else {
      write_error(writer, "monitor needs \"events\", \"ndjson\", or \"file\"");
      return;
    }

    const monitor::StreamStats& stats = checker.stats();
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("class").value(name);
    writer.key("events").value(stats.events);
    writer.key("ok_events").value(stats.ok);
    writer.key("violations").value(stats.violations);
    writer.key("malformed").value(stats.malformed);
    writer.key("devices").value(stats.devices);
    writer.key("completed_devices").value(checker.completed_devices());
    writer.key("violated_devices").value(checker.violated_devices());
    writer.key("incomplete_devices").value(checker.incomplete_devices());
    writer.key("violations_dropped").value(stats.violations_dropped);
    writer.key("reports").begin_array();
    for (const monitor::Violation& report : checker.violations()) {
      writer.begin_object();
      writer.key("index").value(report.event_index);
      writer.key("device").value(report.device);
      writer.key("device_index").value(report.device_event_index);
      writer.key("op").value(report.operation);
      if (report.loc.known()) {
        writer.key("line").value(std::uint64_t{report.loc.line});
        writer.key("column").value(std::uint64_t{report.loc.column});
      }
      writer.key("allowed").begin_array();
      for (const std::string& allowed : report.allowed) {
        writer.value(allowed);
      }
      writer.end_array();
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
  }

  static std::uint64_t uptime_ms(const Session& session) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - session.started_)
            .count());
  }

  static void handle_stats(Session& session, JsonWriter& writer) {
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("uptime_ms").value(uptime_ms(session));
    writer.key("requests").value(session.requests_);
    writer.key("request_errors").value(session.request_errors_);
    const MemoStats memo = session.engine_.memo().stats();
    writer.key("memo").begin_object();
    writer.key("hits").value(memo.hits);
    writer.key("misses").value(memo.misses);
    writer.key("stores").value(memo.stores);
    writer.key("invalidations").value(memo.invalidations);
    writer.key("evictions").value(memo.evictions);
    writer.key("bytes").value(memo.bytes);
    writer.key("hit_rate").value(hit_rate(memo.hits, memo.misses));
    writer.end_object();
    const QueryStats queries = session.engine_.stats();
    writer.key("queries").begin_object();
    for (const auto& [kind, name] :
         {std::pair{core::CacheKind::kVerdict, "report"},
          std::pair{core::CacheKind::kArtifact, "artifact"},
          std::pair{core::CacheKind::kTable, "table"}}) {
      writer.key(std::string(name) + "_hits").value(queries[kind].hits);
      writer.key(std::string(name) + "_misses").value(queries[kind].misses);
    }
    writer.end_object();
    const ParseStats parses = session.workspace_.parse_stats();
    writer.key("parse").begin_object();
    writer.key("hits").value(parses.hits);
    writer.key("misses").value(parses.misses);
    writer.key("hit_rate").value(hit_rate(parses.hits, parses.misses));
    writer.end_object();
    if (const core::BehaviorCache* cache = session.workspace_.cache()) {
      const core::CacheStats disk = cache->stats();
      writer.key("cache").begin_object();
      writer.key("hits").value(disk.hits);
      writer.key("misses").value(disk.misses);
      writer.key("invalidations").value(disk.invalidations);
      writer.key("stores").value(disk.stores);
      writer.key("store_failures").value(disk.store_failures);
      writer.key("hit_rate").value(hit_rate(disk.hits, disk.misses));
      writer.end_object();
    }
    // The support/metrics registry: global pipeline counters (e.g. the
    // PR-6 allocation counters) and every latency histogram.  Both are
    // empty unless metrics collection is enabled.
    writer.key("counters").begin_object();
    for (const auto& [name, value] : metrics::counter_snapshot()) {
      writer.key(name).value(value);
    }
    writer.end_object();
    write_histograms(writer);
    writer.end_object();
  }

  /// Prometheus text-exposition rendering of the metrics registry plus
  /// the session gauges.  Dots and other non-identifier characters in
  /// series names become underscores; colliding sanitized names are
  /// disambiguated with deterministic numeric suffixes (see
  /// unique_metric_name); histogram buckets are cumulative with the
  /// mandatory "+Inf" terminal bucket.
  static std::string render_prometheus(const Session& session) {
    std::ostringstream out;
    const auto sanitize = [](std::string_view name) {
      std::string clean = "shelley_";
      for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        clean.push_back(ok ? c : '_');
      }
      return clean;
    };
    // Every emitted family name passes through `used`, so a registry
    // series can never silently shadow a fixed session gauge either.
    std::set<std::string> used;
    const std::string uptime =
        unique_metric_name("shelley_daemon_uptime_ms", used);
    out << "# TYPE " << uptime << " gauge\n";
    out << uptime << " " << uptime_ms(session) << "\n";
    const std::string requests =
        unique_metric_name("shelley_daemon_requests_total", used);
    out << "# TYPE " << requests << " counter\n";
    out << requests << " " << session.requests_ << "\n";
    const std::string errors =
        unique_metric_name("shelley_daemon_request_errors_total", used);
    out << "# TYPE " << errors << " counter\n";
    out << errors << " " << session.request_errors_ << "\n";
    for (const auto& [name, value] : metrics::counter_snapshot()) {
      const std::string metric =
          unique_metric_name(sanitize(name) + "_total", used);
      out << "# TYPE " << metric << " counter\n";
      out << metric << " " << value << "\n";
    }
    for (const auto& [name, snap] : metrics::histogram_snapshot()) {
      const std::string metric = unique_metric_name(sanitize(name), used);
      out << "# TYPE " << metric << " histogram\n";
      std::uint64_t cumulative = 0;
      std::size_t highest = 0;
      for (std::size_t i = 0; i < metrics::Histogram::kBuckets; ++i) {
        if (snap.buckets[i] != 0) highest = i;
      }
      for (std::size_t i = 0; i <= highest && snap.count != 0; ++i) {
        cumulative += snap.buckets[i];
        out << metric << "_bucket{le=\""
            << metrics::Histogram::bucket_upper_bound(i) << "\"} "
            << cumulative << "\n";
      }
      out << metric << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
      out << metric << "_sum " << snap.sum << "\n";
      out << metric << "_count " << snap.count << "\n";
    }
    return out.str();
  }

  static void handle_metrics(Session& session, JsonWriter& writer) {
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("content_type").value("text/plain; version=0.0.4");
    writer.key("body").value(render_prometheus(session));
    writer.end_object();
  }

  /// Trace export over the wire: inline by default, or written to the
  /// path in "out" (the daemon-side equivalent of shelleyc --trace-out).
  static void handle_trace(const JsonValue& request, JsonWriter& writer) {
    if (const JsonValue* path = request.find("out")) {
      const std::string file = path->as_string();
      if (!trace::write_chrome_json(file)) {
        write_error(writer, "cannot write trace to '" + file + "'");
        return;
      }
      writer.begin_object();
      writer.key("ok").value(true);
      writer.key("path").value(file);
      writer.end_object();
      return;
    }
    writer.begin_object();
    writer.key("ok").value(true);
    writer.key("trace").value(trace::to_chrome_json());
    writer.end_object();
  }

  /// Dispatches one request; returns false once shutdown was requested.
  /// `cmd_out` receives the parsed command name (for logging) as soon as
  /// it is known; `server_shutdown` is set when the shutdown carries
  /// {"scope":"server"} (the stdio transport treats both scopes alike).
  static bool handle_request(Session& session, const std::string& line,
                             JsonWriter& writer, std::string& cmd_out,
                             bool& server_shutdown) {
    const JsonValue request = parse_json(line);
    const std::string& cmd = request.at("cmd").as_string();
    cmd_out = cmd;
    if (cmd == "shutdown") {
      if (const JsonValue* scope = request.find("scope")) {
        server_shutdown = scope->as_string() == "server";
      }
      writer.begin_object();
      writer.key("ok").value(true);
      writer.end_object();
      return false;
    }
    if (cmd == "version") {
      writer.begin_object();
      writer.key("ok").value(true);
      writer.key("version").value(core::kToolchainVersion);
      writer.end_object();
    } else if (cmd == "load") {
      handle_load(session, request, writer);
    } else if (cmd == "update") {
      handle_update(session, request, writer);
    } else if (cmd == "verify") {
      handle_run(session, request, /*json=*/false, writer);
    } else if (cmd == "report") {
      handle_run(session, request, /*json=*/true, writer);
    } else if (cmd == "monitor") {
      handle_monitor(session, request, writer);
    } else if (cmd == "stats") {
      handle_stats(session, writer);
    } else if (cmd == "metrics") {
      handle_metrics(session, writer);
    } else if (cmd == "trace") {
      handle_trace(request, writer);
    } else {
      write_error(writer, "unknown command '" + cmd + "'");
    }
    return true;
  }
};

Session::Session(const CliOptions& defaults, const SessionShared& shared)
    : defaults_(defaults),
      request_serial_(shared.request_serial),
      engine_(workspace_, shared.memo) {
  workspace_.set_lint_options(core::LintOptions{defaults_.dfa_budget});
  workspace_.set_check_options(
      core::CheckOptions{defaults_.ltlf_engine, defaults_.lint_claims});
  if (shared.cache != nullptr) workspace_.set_cache(shared.cache);
}

void Session::load_initial_files(std::ostream& err) {
  if (defaults_.files.empty()) return;
  load_inputs(workspace_, defaults_.files, err);
}

Session::Outcome Session::handle_line(const std::string& line) {
  Outcome outcome;
  ++requests_;
  // Log/trace request ids come from the process-wide serial when one is
  // shared (unique across concurrent sessions), else they are the
  // session-local arrival order (the stdio daemon's numbering).
  const std::uint64_t request_id =
      request_serial_ != nullptr
          ? request_serial_->fetch_add(1, std::memory_order_relaxed) + 1
          : requests_;
  // Observability wrapper, all gated so a bare daemon still pays one
  // relaxed load per surface: install the request's trace context (so
  // every span of this request -- including pool workers downstream of
  // submit() -- carries its id), time the request, and log its
  // start/finish/error.
  const bool timed = support::metrics::enabled() || support::log::enabled();
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  if (support::log::enabled()) {
    support::log::write(
        support::log::Level::kInfo, "request.start", request_id,
        {support::log::Field("bytes", std::uint64_t{line.size()})});
  }
  JsonWriter writer;
  std::string cmd;
  bool failed = false;
  std::string failure;
  bool running = true;
  bool server_shutdown = false;
  {
    std::optional<support::trace::ScopedContext> scoped;
    std::optional<support::trace::Span> span;
    if (support::trace::enabled()) {
      scoped.emplace(support::trace::TraceContext{request_id, 0});
      span.emplace("daemon.request");
    }
    try {
      running = SessionAccess::handle_request(*this, line, writer, cmd,
                                              server_shutdown);
    } catch (const std::exception& error) {
      failed = true;
      failure = error.what();
    } catch (...) {
      failed = true;
      failure = "unknown error";
    }
    if (span && span->active()) {
      span->arg("cmd", cmd.empty() ? std::string_view("invalid")
                                   : std::string_view(cmd));
    }
  }
  std::uint64_t elapsed_us = 0;
  if (timed) {
    elapsed_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
  }
  if (support::metrics::enabled()) {
    support::metrics::histogram("daemon.request_us").record(elapsed_us);
  }
  if (failed) {
    ++request_errors_;
    if (support::log::enabled()) {
      support::log::write(
          support::log::Level::kError, "request.error", request_id,
          {support::log::Field("cmd", cmd.empty() ? "invalid" : cmd),
           support::log::Field("error", failure),
           support::log::Field("elapsed_us", elapsed_us)});
    }
    JsonWriter fresh;  // discard any half-written response
    write_error(fresh, failure);
    outcome.response = fresh.str();
    return outcome;
  }
  if (support::log::enabled()) {
    support::log::write(support::log::Level::kInfo, "request.finish",
                        request_id,
                        {support::log::Field("cmd", cmd),
                         support::log::Field("elapsed_us", elapsed_us)});
    if (defaults_.slow_ms > 0 && elapsed_us > defaults_.slow_ms * 1000) {
      support::log::write(
          support::log::Level::kWarn, "request.slow", request_id,
          {support::log::Field("cmd", cmd),
           support::log::Field("elapsed_us", elapsed_us),
           support::log::Field("threshold_ms", defaults_.slow_ms)});
    }
  }
  outcome.response = writer.str();
  outcome.shutdown = !running;
  outcome.shutdown_server = server_shutdown;
  return outcome;
}

}  // namespace shelley::engine
