// The shelleyc command-line semantics as a library: option parsing, the
// load/artifact/verify flow, exit codes.  tools/shelleyc.cpp is a thin
// main() over run_cli(); the daemon reuses the same load and render steps
// request by request, so both front ends stay byte-identical by
// construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "shelley/cache.hpp"
#include "shelley/checker.hpp"
#include "support/guard.hpp"
#include "support/thread_pool.hpp"

namespace shelley::engine {

class QueryEngine;
class Workspace;

struct CliOptions {
  std::vector<std::string> files;
  std::optional<std::string> verify_class;
  std::optional<std::string> dot_class;
  std::optional<std::string> dot_model;
  std::optional<std::string> dot_system;
  std::optional<std::string> dot_usage;
  std::optional<std::string> usage_regex;
  std::optional<std::string> smv;
  std::optional<std::string> monitor;
  std::optional<std::string> sample;
  int sample_count = 5;
  std::size_t jobs = support::ThreadPool::hardware_default();
  bool json = false;
  bool quiet = false;
  bool stats = false;
  bool version = false;
  bool help = false;
  std::optional<std::string> cache_dir;
  bool cache_stats = false;
  std::optional<std::string> trace_out;
  std::size_t dfa_budget = 0;
  // Claim checking: which LTLf engine answers (--ltlf-engine; `both`
  // cross-checks the tableau against the DFA oracle and aborts on any
  // disagreement) and whether to lint claim quality (--lint-claims).
  core::LtlfEngine ltlf_engine = core::LtlfEngine::kDfa;
  bool lint_claims = false;
  // Daemon slow-query threshold: requests taking longer than this many ms
  // get a "request.slow" structured-log line (0 = off).
  std::uint64_t slow_ms = 0;
  // Daemon transports (shelleyd only).  --socket PATH serves N concurrent
  // sessions over a Unix-domain socket; --connect PATH bridges stdio to a
  // running server; neither set = the classic stdio daemon.
  std::optional<std::string> socket_path;
  std::optional<std::string> connect_path;
  // Server scheduling: executor threads = max concurrently running
  // requests (0 = hardware default), and the per-session pending-request
  // bound past which admission control rejects.
  std::size_t max_inflight = 0;
  std::size_t session_queue_depth = 16;
  // Resource guards (support::guard); zeros keep the built-in defaults /
  // leave the check disabled.
  std::size_t max_states = 0;
  std::uint64_t timeout_ms = 0;
  std::size_t max_input_bytes = 0;
  std::size_t max_depth = 0;
};

void print_usage(std::ostream& out, const std::string& tool);

/// Parses shelleyc-style arguments.  `tool` names the binary in error
/// messages.  nullopt means a usage error (the caller prints usage and
/// exits 2); a returned options with `help` set means --help was asked
/// (print usage, exit 0).  --version permits an empty file list, as does
/// `require_files = false` (the daemon starts empty and loads over the
/// wire).
[[nodiscard]] std::optional<CliOptions> parse_cli_args(
    int argc, char** argv, const std::string& tool, std::ostream& err,
    bool require_files = true);

/// The resource guards `options` asks for (--max-depth, --max-input-bytes,
/// --max-states, --timeout-ms); zeros keep the built-in defaults.  Every
/// front end arms them once per process with a ScopedLimits.
[[nodiscard]] support::guard::Limits guard_limits(const CliOptions& options);

/// Opens the --cache directory into `cache` when one is given.  On failure
/// writes "<tool>: <reason>" to `err` and returns false (the caller exits
/// 2); without a directory it leaves `cache` empty and returns true.
[[nodiscard]] bool open_cache(const std::optional<std::string>& directory,
                              std::string_view tool, std::ostream& err,
                              std::optional<core::BehaviorCache>& cache);

/// Loads every file of `options` into `workspace` with shelleyc's
/// per-file fault isolation and stderr protocol (the "cannot open"
/// notice, path-prefixed diagnostics, the failure line).  Returns
/// workspace.load_failed().
bool load_inputs(Workspace& workspace,
                 const std::vector<std::string>& files, std::ostream& err);

/// The whole shelleyc run over a caller-provided engine: artifact modes,
/// monitoring, verification, reports, stats.  Resource guards must
/// already be installed (main owns ScopedLimits so the daemon can arm
/// them once per process).  Returns the process exit status.
[[nodiscard]] int run_cli(const CliOptions& options, QueryEngine& engine,
                          std::istream& in, std::ostream& out,
                          std::ostream& err);

/// Convenience for the shelleyc tool: builds the workspace, cache, and
/// query engine, arms the guards, and runs run_cli.
[[nodiscard]] int run_tool(const CliOptions& options, std::istream& in,
                           std::ostream& out, std::ostream& err);

}  // namespace shelley::engine
