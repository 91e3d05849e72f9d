// monitor_fleet: one operation is StreamChecker::ingest_ndjson on one
// fixed-size batch of events from a fleet of devices of several generated
// classes -- seeded valid walks with a small seeded violation rate.  No
// verification runs; the classes' tables are compiled during set-up.
#include <memory>
#include <stdexcept>

#include "corpus.hpp"
#include "engine/query.hpp"
#include "engine/workspace.hpp"
#include "monitor/stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace shelley;

constexpr std::size_t kClasses = 8;
constexpr std::size_t kDevices = 4096;
constexpr std::size_t kBatchEvents = 4096;
constexpr double kViolationRate = 0.0005;
constexpr std::size_t kWarmupBatches = 64;

/// The program side of the fleet: one checker per class, and in the
/// traced run a twin checker per class that is fed the same events as
/// SMEV frames.
struct Checkers {
  std::vector<std::unique_ptr<monitor::StreamChecker>> ndjson;
  std::vector<std::unique_ptr<monitor::StreamChecker>> binary;
};

/// Compares a checker's counters after a batch with the reference.
std::string check_batch(const monitor::StreamChecker& checker,
                        const monitor::StreamStats& before,
                        const Fleet::Batch& batch) {
  const monitor::StreamStats& after = checker.stats();
  const auto mismatch = [](const char* what, std::uint64_t got,
                           std::uint64_t want) {
    return std::string(what) + " " + std::to_string(got) + ", expected " +
           std::to_string(want);
  };
  if (after.ok - before.ok != batch.ok) {
    return mismatch("ok events", after.ok - before.ok, batch.ok);
  }
  if (after.violations - before.violations != batch.violations) {
    return mismatch("violations", after.violations - before.violations,
                    batch.violations);
  }
  if (after.malformed != before.malformed) {
    return mismatch("malformed lines", after.malformed - before.malformed, 0);
  }
  if (after.devices != batch.devices_seen) {
    return mismatch("devices", after.devices, batch.devices_seen);
  }
  if (checker.violated_devices() != batch.violated_devices) {
    return mismatch("latched devices", checker.violated_devices(),
                    batch.violated_devices);
  }
  return "";
}

/// Ingests one batch; returns the NDJSON ingest time in ms.
double ingest(Checkers& checkers, const Fleet::Batch& batch, Tracer* tracer,
              double* sweep_ms, std::string& why) {
  monitor::StreamChecker& checker = *checkers.ndjson[batch.cls];
  const monitor::StreamStats before = checker.stats();
  const Probe op(tracer, "op");
  const Clock::time_point start = Clock::now();
  {
    const Probe span(tracer, "monitor.ingest");
    (void)checker.ingest_ndjson(batch.ndjson);
  }
  const double ms = ms_between(start, Clock::now());
  why = check_batch(checker, before, batch);
  if (!checkers.binary.empty()) {
    const std::string frame = monitor::encode_binary_frame(
        batch.devices, batch.ops, batch.events);
    const Clock::time_point sweep = Clock::now();
    {
      const Probe span(tracer, "monitor.sweep");
      (void)monitor::ingest_binary_stream(*checkers.binary[batch.cls], frame);
    }
    *sweep_ms += ms_between(sweep, Clock::now());
  }
  return ms;
}

}  // namespace

Result run_monitor_fleet(const Args& args) {
  Result result;
  Tracer tracer;
  Tracer* const t = args.trace ? &tracer : nullptr;
  // Set-up, from scratch each time: cold compiled_table for every class,
  // the checkers, and the warm-up batches (only their ingest is timed;
  // making them is the harness's work).  The first fleet stays.
  double compile_ms = 0;
  std::size_t compiled = 0;
  const auto setup = [&](std::unique_ptr<Fleet>& fleet, Checkers& checkers) {
    fleet = std::make_unique<Fleet>(args.seed, kClasses, kDevices,
                                    kBatchEvents, kViolationRate);
    const std::string source = fleet->source();
    checkers = Checkers{};
    const Clock::time_point start = Clock::now();
    engine::Workspace workspace;
    engine::QueryEngine engine(workspace);
    (void)workspace.load_source("fleet/units.py", source);
    for (const Protocol& protocol : fleet->classes()) {
      const core::ClassSpec* spec =
          workspace.verifier().find_class(protocol.class_name);
      if (spec == nullptr) {
        throw std::runtime_error("class " + protocol.class_name +
                                 " did not load");
      }
      const Clock::time_point compile = Clock::now();
      fsm::CompiledDfa table;
      {
        const Probe span(t, "fsm.table_compile");
        table = engine.compiled_table(*spec);
      }
      compile_ms += ms_between(compile, Clock::now());
      ++compiled;
      if (args.trace) {
        checkers.binary.push_back(
            std::make_unique<monitor::StreamChecker>(table));
      }
      checkers.ndjson.push_back(
          std::make_unique<monitor::StreamChecker>(std::move(table)));
    }
    double seconds = ms_between(start, Clock::now()) / 1000;
    for (std::size_t b = 0; b < kWarmupBatches; ++b) {
      const Fleet::Batch batch = fleet->next(args.trace);
      double unused = 0;
      std::string why;
      seconds += ingest(checkers, batch, nullptr, &unused, why) / 1000;
      if (!why.empty()) result.record("warm-up: " + why);
    }
    return seconds;
  };
  std::unique_ptr<Fleet> fleet;
  Checkers checkers;
  std::vector<double> setups = {setup(fleet, checkers)};

  const std::size_t ops = op_count(args.seconds, 400, 500);
  if (!args.trace) {
    std::vector<double> latencies;
    latencies.reserve(ops);
    double events = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      if (setup_due(i, ops, setups.size())) {
        std::unique_ptr<Fleet> spare_fleet;
        Checkers spare_checkers;
        setups.push_back(setup(spare_fleet, spare_checkers));
      }
      const Fleet::Batch batch = fleet->next(false);
      double unused = 0;
      std::string why;
      latencies.push_back(ingest(checkers, batch, nullptr, &unused, why));
      events += static_cast<double>(kBatchEvents);
      result.record(why);
    }
    add_end_to_end(result, std::move(latencies), events, std::move(setups));
    return result;
  }

  const auto traced_ops =
      static_cast<std::size_t>(static_cast<double>(ops) * kTracedShare);
  std::vector<double> untraced;
  std::vector<double> traced;
  double sweep_ms = 0;
  for (std::size_t i = 0; i < 2 * traced_ops; ++i) {
    const bool tracing = i % 2 == 1;
    const Fleet::Batch batch = fleet->next(true);
    tracer.set_op(i);
    double unused = 0;
    std::string why;
    const double ms = ingest(checkers, batch, tracing ? &tracer : nullptr,
                             tracing ? &sweep_ms : &unused, why);
    (tracing ? traced : untraced).push_back(ms);
    result.record(why);
  }
  LayerValues values;
  const double events = static_cast<double>(traced_ops * kBatchEvents);
  double ingest_ms = 0;
  for (double ms : traced) ingest_ms += ms;
  values["monitor.ingest_ns_per_event"] = ingest_ms * 1e6 / events;
  values["monitor.sweep_ns_per_event"] = sweep_ms * 1e6 / events;
  values["monitor.decode_ns_per_event"] = (ingest_ms - sweep_ms) * 1e6 / events;
  values["monitor.events"] = events;
  double violations = 0;
  double devices = 0;
  for (const auto& checker : checkers.ndjson) {
    violations += static_cast<double>(checker->stats().violations);
    devices += static_cast<double>(checker->stats().devices);
  }
  values["monitor.violations"] = violations;
  values["monitor.devices"] = devices;
  values["fsm.table_compile_ms"] =
      compiled > 0 ? compile_ms / static_cast<double>(compiled) : 0;
  add_layer_metrics(result, values, std::move(untraced), std::move(traced));
  if (!tracer.write(trace_path(args), context_json(args))) {
    result.failures.push_back("cannot write " + trace_path(args));
  }
  return result;
}

}  // namespace perfbench
