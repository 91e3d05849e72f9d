// Measurement plumbing shared by every workload: the clock, latency
// statistics, the program's peak resident memory, failure accounting, the
// result line, and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t repeat = 0;  ///< > 0: repeat mode (see main.cpp)
};

/// What a workload run produced, before it is printed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for stderr
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  /// Counts one operation; `why` empty means its answer matched.
  void record(const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Interpolated quantile of `values` (sorted in place), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// The five end-to-end metrics every workload reports.  `latencies_ms`
/// are per-operation times, `units` the work they completed (operations,
/// or events for the monitor), `setup_samples_s` one entry per fresh
/// set-up.
void add_end_to_end(Result& result, std::vector<double> latencies_ms,
                    double units, std::vector<double> setup_samples_s);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The traced run's span recorder.  Spans are kept in memory and written
/// out once the run ends; a span's parent is the innermost span open when
/// it began, and every span carries the operation it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Totals per span name over the whole run.
  struct Layer {
    double total_ms = 0;
    double self_ms = 0;  ///< total minus the time its child spans cover
    std::uint64_t count = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  explicit Tracer(std::size_t reserve = 1 << 16);

  void set_op(std::uint64_t op) { op_ = op; }

  [[nodiscard]] Layer layer(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Writes every span plus the per-layer totals as one JSON document.
  /// Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& context_json) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

/// A span that is opened only when `tracer` is set (the traced run).
class Probe {
 public:
  Probe(Tracer* tracer, const char* name) {
    if (tracer != nullptr) scope_.emplace(*tracer, name);
  }

 private:
  std::optional<Tracer::Scope> scope_;
};

/// Host context: nproc, build type, compiler, seed, commit, workload.
[[nodiscard]] std::string context_json(const Args& args);

/// Where the traced run writes its span file (inside the build tree).
[[nodiscard]] std::string trace_path(const Args& args);

}  // namespace perfbench
