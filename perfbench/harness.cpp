#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "support/json.hpp"

namespace perfbench {

void Result::record(const std::string& why) {
  ++attempted;
  if (why.empty()) return;
  ++failed;
  if (failures.size() < 8) {
    failures.push_back("operation " + std::to_string(attempted - 1) + ": " +
                       why);
  }
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

void add_end_to_end(Result& result, std::vector<double> latencies_ms,
                    double units, std::vector<double> setup_samples_s) {
  const double busy_ms =
      std::accumulate(latencies_ms.begin(), latencies_ms.end(), 0.0);
  result.add("setup_s", median(std::move(setup_samples_s)), "s");
  result.add("latency_ms.p50", quantile(latencies_ms, 0.5), "ms");
  result.add("latency_ms.p90", quantile(latencies_ms, 0.9), "ms");
  result.add("throughput_per_s", busy_ms > 0 ? units / (busy_ms / 1000) : 0,
             "1/s");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Tracer::Tracer(std::size_t reserve) { spans_.reserve(reserve); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.op = tracer.op_;
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<std::int32_t>(tracer.open_.back());
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
  tracer.spans_[index_].start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

Tracer::Layer Tracer::layer(std::string_view name) const {
  Layer out;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    out.total_ms += static_cast<double>(total) / 1e6;
    out.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
    ++out.count;
  }
  return out;
}

bool Tracer::write(const std::string& path,
                   const std::string& context) const {
  shelley::JsonWriter writer;
  writer.begin_object();
  std::map<std::string, int> names;
  for (const Span& span : spans_) names.emplace(span.name, 0);
  writer.key("layers").begin_object();
  for (const auto& [name, unused] : names) {
    const Layer totals = layer(name);
    writer.key(name).begin_object();
    writer.key("total_ms").value(totals.total_ms);
    writer.key("self_ms").value(totals.self_ms);
    writer.key("count").value(totals.count);
    writer.end_object();
  }
  writer.end_object();
  writer.key("spans").begin_array();
  for (const Span& span : spans_) {
    writer.begin_object();
    writer.key("name").value(span.name);
    writer.key("op").value(span.op);
    writer.key("parent").value(static_cast<std::int64_t>(span.parent));
    writer.key("start_ns").value(span.start_ns);
    writer.key("end_ns").value(span.end_ns);
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
  std::error_code ignored;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ignored);
  // The context is already a JSON object; splice it in as the first key.
  std::ofstream out(path, std::ios::binary);
  out << "{\"context\":" << context << "," << writer.str().substr(1)
      << '\n';
  return static_cast<bool>(out);
}

std::string context_json(const Args& args) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  shelley::JsonWriter writer;
  writer.begin_object();
  writer.key("workload").value(args.workload);
  writer.key("seed").value(args.seed);
  writer.key("seconds").value(args.seconds);
  writer.key("trace").value(args.trace);
  writer.key("nproc").value(
      static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  writer.key("build_type").value(PERFBENCH_BUILD_TYPE);
  writer.key("compiler").value(PERFBENCH_COMPILER);
  writer.key("commit").value(commit != nullptr ? commit : "unknown");
  writer.end_object();
  return writer.str();
}

std::string trace_path(const Args& args) {
  return ".bench_build/traces/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

}  // namespace perfbench
