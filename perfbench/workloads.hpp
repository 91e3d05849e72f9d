// The four workloads.  Each runs in-process with one caller in a closed
// loop, replays a seeded operation sequence whose length is fixed by
// --seconds (a count, not a time box: every percentile is then the same
// rank over the same kind of inputs), checks every answer against the
// generator's known answer, and reports the five end-to-end metrics -- or,
// traced, the per-layer metrics.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "harness.hpp"
#include "replay.hpp"

namespace perfbench {

/// Operations a run of `seconds` replays at `nominal_per_second`.  The
/// rate is a constant, not a measurement, so the count depends only on the
/// arguments.
[[nodiscard]] std::size_t op_count(double seconds, double nominal_per_second,
                                   std::size_t minimum);

/// Fresh set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetups = 5;

/// True when the untraced run times its next fresh set-up before operation
/// `i`, `done` set-ups in: the first runs before any operation and the
/// rest are spread evenly over the run, so the median samples the machine
/// across the run like the latencies do (on a shared virtual machine the
/// clock speed can shift every few seconds).
[[nodiscard]] inline bool setup_due(std::size_t i, std::size_t ops,
                                    std::size_t done) {
  return done < kSetups && i >= done * ops / kSetups;
}

/// The traced run covers this share of the operations twice, once without
/// spans and once with them (the same inputs where the workload is
/// stateless, alternate operations where it is not), and reports the
/// difference of the two latency percentiles as the tracing overhead.
inline constexpr double kTracedShare = 0.25;

Result run_verify_corpus(const Args& args);
Result run_composite_farm(const Args& args);
Result run_editor_session(const Args& args);
Result run_monitor_fleet(const Args& args);

/// Per-layer values of one traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric to `result`, in one fixed order, taking
/// each value from `values` (0 for a layer the workload does not reach),
/// plus the tracing overhead from the untraced and traced latencies of
/// the same operations.
void add_layer_metrics(Result& result, const LayerValues& values,
                       std::vector<double> untraced_ms,
                       std::vector<double> traced_ms);

/// The layer values every traced run with a replay derives from its spans
/// and counters; times are per traced operation.
void add_span_layers(LayerValues& values, const Tracer& tracer,
                     std::size_t ops, const ReplayCounts& counts,
                     const EngineCounts& engine);

}  // namespace perfbench
