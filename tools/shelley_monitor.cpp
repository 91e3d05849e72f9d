// shelley-monitor -- the streaming-monitor front door: compiles one
// verified class's usage DFA into a dense transition table (cold, or warm
// through --cache) and checks event streams against it at millions of
// events per second.
//
//   shelley-monitor --class NAME spec.py... [--events FILE]
//       check an NDJSON event stream ({"device":...,"op":...} per line;
//       FILE defaults to stdin)
//   shelley-monitor --class NAME spec.py... --events FILE --format binary
//       check a length-prefixed SMEV binary stream (see docs/MONITORING.md)
//   shelley-monitor --class NAME spec.py... --emit-binary OUT [--events F]
//       convert an NDJSON stream to SMEV frames and exit
//
// Options: --shards N (parallel device shards), --max-violations N
// (reports retained), --cache DIR (warm table artifacts), --stats
// (throughput to stderr), --quiet (summary only).
//
// Exit status: 0 when the stream is violation-free, 1 when violations were
// found, 2 on usage/input errors (unknown class, unreadable files,
// malformed binary framing).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/driver.hpp"
#include "engine/query.hpp"
#include "engine/workspace.hpp"
#include "monitor/stream.hpp"
#include "shelley/cache.hpp"
#include "support/guard.hpp"
#include "support/strings.hpp"

namespace {

using namespace shelley;

struct MonitorOptions {
  std::vector<std::string> files;
  std::string class_name;
  std::optional<std::string> events_file;  // absent = stdin
  bool binary = false;
  std::size_t shards = 1;
  std::size_t max_violations = 1024;
  std::optional<std::string> cache_dir;
  bool cache_stats = false;
  bool stats = false;
  bool quiet = false;
  std::optional<std::string> emit_binary;
  bool help = false;
};

void print_usage(std::ostream& out) {
  out << "usage: shelley-monitor --class NAME [options] <file.py>...\n"
         "  --events FILE        event stream (default: stdin)\n"
         "  --format ndjson|binary\n"
         "                       input format (default: ndjson)\n"
         "  --shards N           parallel device shards (default: 1)\n"
         "  --max-violations N   violation reports retained (default: 1024)\n"
         "  --cache DIR          behavior cache for warm table compiles\n"
         "  --cache-stats        print cache counters after the run\n"
         "  --stats              print throughput to stderr\n"
         "  --quiet              suppress per-violation lines\n"
         "  --emit-binary OUT    convert the NDJSON input to SMEV frames\n"
         "  --help               this text\n";
}

std::optional<MonitorOptions> parse_args(int argc, char** argv,
                                         std::ostream& err) {
  MonitorOptions options;
  const auto value = [&](int& i, const char* flag) -> std::optional<std::string> {
    if (i + 1 >= argc) {
      err << "shelley-monitor: " << flag << " needs a value\n";
      return std::nullopt;
    }
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--class") {
      const auto v = value(i, "--class");
      if (!v) return std::nullopt;
      options.class_name = *v;
    } else if (arg == "--events") {
      const auto v = value(i, "--events");
      if (!v) return std::nullopt;
      options.events_file = *v;
    } else if (arg == "--format") {
      const auto v = value(i, "--format");
      if (!v) return std::nullopt;
      if (*v == "binary") {
        options.binary = true;
      } else if (*v == "ndjson") {
        options.binary = false;
      } else {
        err << "shelley-monitor: unknown format '" << *v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--shards") {
      const auto v = value(i, "--shards");
      if (!v) return std::nullopt;
      options.shards = static_cast<std::size_t>(std::stoul(*v));
    } else if (arg == "--max-violations") {
      const auto v = value(i, "--max-violations");
      if (!v) return std::nullopt;
      options.max_violations = static_cast<std::size_t>(std::stoul(*v));
    } else if (arg == "--cache") {
      const auto v = value(i, "--cache");
      if (!v) return std::nullopt;
      options.cache_dir = *v;
    } else if (arg == "--cache-stats") {
      options.cache_stats = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--emit-binary") {
      const auto v = value(i, "--emit-binary");
      if (!v) return std::nullopt;
      options.emit_binary = *v;
    } else if (!arg.empty() && arg.front() == '-') {
      err << "shelley-monitor: unknown option '" << arg << "'\n";
      return std::nullopt;
    } else {
      options.files.emplace_back(arg);
    }
  }
  if (options.class_name.empty()) {
    err << "shelley-monitor: --class is required\n";
    return std::nullopt;
  }
  if (options.files.empty()) {
    err << "shelley-monitor: no input files\n";
    return std::nullopt;
  }
  return options;
}

/// NDJSON -> SMEV converter (--emit-binary): one frame per ~1M events.
int emit_binary(const MonitorOptions& options, std::istream& in,
                std::ostream& err) {
  std::ofstream out(*options.emit_binary, std::ios::binary | std::ios::trunc);
  if (!out) {
    err << "shelley-monitor: cannot write '" << *options.emit_binary << "'\n";
    return 2;
  }
  constexpr std::size_t kFrameEvents = 1u << 20;
  std::vector<std::string> devices;
  StringMap<std::uint32_t> device_index;
  std::vector<std::string> ops;
  StringMap<std::uint32_t> op_index;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> events;
  std::uint64_t malformed = 0;
  const auto flush_frame = [&] {
    if (events.empty()) return;
    const std::string frame = monitor::encode_binary_frame(devices, ops, events);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    devices.clear();
    device_index.clear();
    ops.clear();
    op_index.clear();
    events.clear();
  };
  const auto intern = [](std::vector<std::string>& names,
                         StringMap<std::uint32_t>& index,
                         std::string_view name) {
    const auto it = index.find(name);
    if (it != index.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names.size());
    names.emplace_back(name);
    index.emplace(names.back(), id);
    return id;
  };
  monitor::pump(in, true, [&](std::string_view buffer) {
    return monitor::for_each_event_line(
        buffer,
        [&](std::string_view device, std::string_view op) {
          events.emplace_back(intern(devices, device_index, device),
                              intern(ops, op_index, op));
          if (events.size() >= kFrameEvents) flush_frame();
        },
        [&] { ++malformed; });
  });
  flush_frame();
  if (malformed != 0) {
    err << "shelley-monitor: skipped " << malformed << " malformed lines\n";
  }
  return out.good() ? 0 : 2;
}

void print_violation(const monitor::Violation& violation, std::ostream& out) {
  out << "violation: device '" << violation.device << "' event #"
      << violation.event_index << ": operation '" << violation.operation
      << "'";
  if (violation.loc.known()) out << " (declared at " << to_string(violation.loc) << ")";
  out << " not allowed";
  if (!violation.allowed.empty()) {
    out << " (allowed:";
    for (const std::string& name : violation.allowed) out << " " << name;
    out << ")";
  }
  out << "\n";
}

int run(const MonitorOptions& options, std::istream& stdin_stream,
        std::ostream& out, std::ostream& err) {
  // Default resource guards cover the compile path, like shelleyc.
  const support::guard::ScopedLimits guard{support::guard::Limits{}};

  engine::Workspace workspace;
  std::optional<core::BehaviorCache> cache;
  if (!engine::open_cache(options.cache_dir, "shelley-monitor", err, cache)) {
    return 2;
  }
  if (cache) workspace.set_cache(&*cache);
  engine::QueryEngine engine(workspace);
  if (engine::load_inputs(workspace, options.files, err)) return 2;
  const core::ClassSpec* spec =
      workspace.verifier().find_class(options.class_name);
  if (spec == nullptr) {
    err << "shelley-monitor: unknown class '" << options.class_name << "'\n";
    return 2;
  }

  std::ifstream file;
  std::istream* events = &stdin_stream;
  if (options.events_file) {
    file.open(*options.events_file, std::ios::binary);
    if (!file) {
      err << "shelley-monitor: cannot open events file '"
          << *options.events_file << "'\n";
      return 2;
    }
    events = &file;
  }

  if (options.emit_binary) return emit_binary(options, *events, err);

  monitor::StreamChecker::Options checker_options;
  checker_options.shards = options.shards;
  checker_options.max_violations = options.max_violations;
  monitor::StreamChecker checker(engine.compiled_table(*spec),
                                 checker_options);
  {
    std::unordered_map<std::string, SourceLoc> locations;
    for (const core::Operation& op : spec->operations) {
      locations.emplace(op.name, op.loc);
    }
    checker.set_source_locations(std::move(locations));
  }

  const auto started = std::chrono::steady_clock::now();
  bool clean_input = true;
  if (options.binary) {
    try {
      clean_input =
          monitor::pump(*events, false, [&](std::string_view buffer) {
            return monitor::ingest_binary_stream(checker, buffer);
          });
    } catch (const support::BinaryFormatError& error) {
      err << "shelley-monitor: malformed binary stream: " << error.what()
          << "\n";
      return 2;
    }
    if (!clean_input) {
      err << "shelley-monitor: event stream ends mid-frame\n";
      return 2;
    }
  } else {
    monitor::pump(*events, true, [&](std::string_view buffer) {
      return checker.ingest_ndjson(buffer);
    });
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;

  if (!options.quiet) {
    for (const monitor::Violation& violation : checker.violations()) {
      print_violation(violation, out);
    }
  }
  const monitor::StreamStats& stats = checker.stats();
  out << "events " << stats.events << ", ok " << stats.ok << ", violations "
      << stats.violations << ", malformed " << stats.malformed << ", devices "
      << stats.devices << " (completed " << checker.completed_devices()
      << ", violated " << checker.violated_devices() << ", incomplete "
      << checker.incomplete_devices() << ")\n";
  if (stats.violations_dropped != 0) {
    out << "(" << stats.violations_dropped
        << " additional violation reports dropped)\n";
  }
  if (options.stats) {
    const double seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count();
    const double rate =
        seconds > 0 ? static_cast<double>(stats.events) / seconds : 0.0;
    err << "monitor-stats: " << stats.events << " events in "
        << static_cast<std::uint64_t>(seconds * 1e6) << " us ("
        << static_cast<std::uint64_t>(rate) << " events/s, " << options.shards
        << " shard" << (options.shards == 1 ? "" : "s") << ")\n";
  }
  if (options.cache_stats && cache) {
    const core::CacheStats disk = cache->stats();
    err << "cache-stats: hits " << disk.hits << ", misses " << disk.misses
        << ", invalidations " << disk.invalidations << ", stores "
        << disk.stores << "\n";
  }
  return stats.violations != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv, std::cerr);
  if (!options) {
    print_usage(std::cerr);
    return 2;
  }
  if (options->help) {
    print_usage(std::cout);
    return 0;
  }
  try {
    return run(*options, std::cin, std::cout, std::cerr);
  } catch (const std::exception& error) {
    std::cerr << "shelley-monitor: internal error: " << error.what() << "\n";
  } catch (...) {
    std::cerr << "shelley-monitor: internal error\n";
  }
  return 2;
}
