// The end-to-end benchmark of Shelley-MP: four workloads driven
// in-process, every answer checked against a known answer.
//
//   shelley_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   shelley_perfbench --workload NAME --repeat K [--seed N] [--seconds S]
//
// A run prints a context line (host, build, seed, commit) and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced the
// metrics are the five end-to-end ones; traced (--trace 1) the per-layer
// ones, and the spans go to .bench_build/traces/.  Repeat mode runs K
// fresh processes on seeds N..N+K-1 and prints each metric's median and
// quartile spread (the steadiness evidence the bounds rest on).
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Result (*run)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"verify_corpus", run_verify_corpus},
    {"composite_farm", run_composite_farm},
    {"editor_session", run_editor_session},
    {"monitor_fleet", run_monitor_fleet},
};

/// Keeps every thread of the run on the CPU it started on, so the editor's
/// client, reader and executor threads hand requests to each other on one
/// CPU instead of waiting for another vCPU to be scheduled.  Repeat-mode
/// children inherit the mask.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

int usage(const std::string& problem) {
  std::cerr << "shelley_perfbench: " << problem << "\n"
            << "usage: shelley_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--repeat K]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

std::string result_json(const Result& result) {
  shelley::JsonWriter writer;
  writer.begin_object();
  writer.key("correct").value(result.failed == 0);
  writer.key("attempted").value(result.attempted);
  writer.key("failed").value(result.failed);
  writer.key("metrics").begin_object();
  for (const Result::Metric& metric : result.metrics) {
    writer.key(metric.name).begin_object();
    writer.key("value").value(metric.value);
    writer.key("unit").value(metric.unit);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  return writer.str();
}

/// Runs `argv` and returns the last line it printed on stdout; throws when
/// it cannot start or exits with a non-zero status.
std::string run_child(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> raw;
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, raw[0], &actions, nullptr, raw.data(),
                                  environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fds[0], buffer, sizeof buffer)) > 0;) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot start " + argv[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("run failed: " + argv[0]);
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const std::size_t nl = out.rfind('\n');
  return nl == std::string::npos ? out : out.substr(nl + 1);
}

/// statistics.quantiles(values, n=4) of Python (the exclusive method).
std::vector<double> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto count = static_cast<long>(values.size());
  std::vector<double> out;
  if (count < 2) return {values.at(0), values.at(0), values.at(0)};
  const long m = count + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, count - 1);
    const long delta = i * m - j * 4;
    out.push_back((values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4);
  }
  return out;
}

int repeat(const Args& args, const char* self) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  std::vector<std::string> order;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < args.repeat; ++k) {
    char seconds[32];
    std::snprintf(seconds, sizeof seconds, "%g", args.seconds);
    const std::string line = run_child(
        {self, "--workload", args.workload, "--seed",
         std::to_string(args.seed + k), "--seconds", seconds, "--trace",
         args.trace ? "1" : "0"});
    const shelley::JsonValue result = shelley::parse_json(line);
    attempted += static_cast<std::uint64_t>(result.at("attempted").as_number());
    failed += static_cast<std::uint64_t>(result.at("failed").as_number());
    for (const auto& [name, metric] : result.at("metrics").as_object()) {
      if (!values.contains(name)) order.push_back(name);
      values[name].push_back(metric.at("value").as_number());
      units[name] = metric.at("unit").as_string();
    }
    std::cerr << "run " << k + 1 << "/" << args.repeat << ": " << line << "\n";
  }
  std::printf("{\"context\":%s}\n", context_json(args).c_str());
  std::printf("%-32s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3",
              "spread");
  shelley::JsonWriter writer;
  writer.begin_object();
  writer.key("workload").value(args.workload);
  writer.key("runs").value(static_cast<std::uint64_t>(args.repeat));
  writer.key("attempted").value(attempted);
  writer.key("failed").value(failed);
  writer.key("metrics").begin_object();
  for (const std::string& name : order) {
    const std::vector<double> q = quartiles(values[name]);
    const double spread = q[1] != 0 ? (q[2] - q[0]) / q[1] : 0;
    std::printf("%-32s %14.6g %14.6g %14.6g %7.2f%%\n", name.c_str(), q[1],
                q[0], q[2], 100 * spread);
    writer.key(name).begin_object();
    writer.key("median").value(q[1]);
    writer.key("q1").value(q[0]);
    writer.key("q3").value(q[2]);
    writer.key("spread").value(spread);
    writer.key("unit").value(units[name]);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  std::printf("%s\n", writer.str().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--repeat") {
        args.repeat = std::stoul(value);
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  pin_to_current_cpu();
  try {
    if (args.repeat > 0) return repeat(args, argv[0]);
    const Result result = workload->run(args);
    for (const std::string& failure : result.failures) {
      std::cerr << "shelley_perfbench: " << args.workload << ": " << failure
                << "\n";
    }
    std::printf("{\"context\":%s}\n", context_json(args).c_str());
    std::printf("%s\n", result_json(result).c_str());
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "shelley_perfbench: " << args.workload << ": " << error.what()
              << "\n";
    return 1;
  }
}
