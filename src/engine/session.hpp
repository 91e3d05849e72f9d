// One daemon session as a first-class object: the long-lived
// workspace/engine pair, the session-wide defaults every request starts
// from, and the full per-request observability wrapper (trace context,
// daemon.request_us, request.start/finish/error/slow log lines, error
// accounting).
//
// Both transports are thin loops over Session::handle_line: run_daemon
// (stdio, the degenerate single-session case) feeds it stdin lines, and
// the socket server's scheduler runs it once per queued request.  A
// session is not internally synchronized -- the wire protocol is
// sequential per client, and the scheduler guarantees at most one task of
// a session runs at a time -- but the shared tiers it may attach to
// (MemoTier, BehaviorCache, the thread pool) are.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "engine/driver.hpp"
#include "engine/memo.hpp"
#include "engine/query.hpp"
#include "engine/workspace.hpp"

namespace shelley::core {
class BehaviorCache;
}

namespace shelley::engine {

/// Process-wide resources a server session plugs into.  All-null (the
/// default) reproduces the stdio daemon exactly: a private memo tier and
/// session-local request ids.
struct SessionShared {
  /// On-disk cache attached to the session's workspace (may be null).
  core::BehaviorCache* cache = nullptr;
  /// Memo tier shared across sessions; null = the session owns a private
  /// tier.
  MemoTier* memo = nullptr;
  /// Process-wide request-id serial so log/trace request ids stay unique
  /// across concurrent sessions; null = ids are the session-local 1-based
  /// arrival order (the stdio daemon's numbering, pinned by the obs
  /// tests).
  std::atomic<std::uint64_t>* request_serial = nullptr;
};

class Session {
 public:
  /// What one request line produced.  `response` is exactly one JSON
  /// object, no trailing newline.
  struct Outcome {
    std::string response;
    bool shutdown = false;         ///< this session asked to end
    bool shutdown_server = false;  ///< {"cmd":"shutdown","scope":"server"}
  };

  /// `defaults` is copied; lint options and the shared cache (when given)
  /// are attached to the freshly built workspace.
  Session(const CliOptions& defaults, const SessionShared& shared = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Loads `defaults.files` with the batch loader's stderr protocol going
  /// to `err` (command-line files load before the first request).
  void load_initial_files(std::ostream& err);

  /// Handles one request line end to end -- dispatch, trace context +
  /// span, daemon.request_us, request.start/finish/error/slow log lines,
  /// error accounting -- and never throws: a malformed or failing request
  /// becomes an {"ok":false,...} response (the never-crash frontend
  /// contract extends to the wire).
  [[nodiscard]] Outcome handle_line(const std::string& line);

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t request_errors() const {
    return request_errors_;
  }
  [[nodiscard]] Workspace& workspace() { return workspace_; }
  [[nodiscard]] QueryEngine& engine() { return engine_; }

 private:
  friend struct SessionAccess;  // handler implementation (session.cpp)

  CliOptions defaults_;
  std::atomic<std::uint64_t>* request_serial_;
  Workspace workspace_;
  QueryEngine engine_;
  std::uint64_t requests_ = 0;
  std::uint64_t request_errors_ = 0;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

/// The request framing both transports share.  Reads `read` (which fills
/// up to `size` bytes and returns the count, 0 at end of input) and hands
/// each request line to `on_line` until it returns false: one '\r' before
/// the '\n' is stripped and empty lines are skipped.  A line longer than
/// the input limit (support::guard::limits().max_input_bytes) is answered
/// once through `reject`, with the reply that names the bound, and dropped
/// through its '\n' without being buffered.  At most one partial line is
/// held, and each byte is searched for '\n' once however many reads a
/// line takes.  An unterminated line at end of input is dropped.
void read_request_lines(
    const std::function<std::size_t(char* data, std::size_t size)>& read,
    const std::function<bool(std::string line)>& on_line,
    const std::function<void(const std::string& reply)>& reject);

/// Reads the next piece of `in` into `data` (at most `size` >= 2 bytes),
/// never past a '\n', so a reply can go out before the next request is
/// read.  End of input ends an unterminated last line with a '\n', as
/// std::getline would.  Returns 0 at end of input.
std::size_t read_line_piece(std::istream& in, char* data, std::size_t size);

namespace testing {
/// Makes the next verify/report request fail as if run_cli threw -- the
/// regression hook for the error-accounting path (stats.request_errors,
/// the request.error log line, the {"ok":false} reply).  Test-only.
void fail_next_run(bool fail);
}  // namespace testing

}  // namespace shelley::engine
