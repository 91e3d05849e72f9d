#include "engine/daemon.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "engine/session.hpp"
#include "shelley/cache.hpp"
#include "support/guard.hpp"
#include "support/log.hpp"

namespace shelley::engine {

int run_daemon(const CliOptions& session_options, std::istream& in,
               std::ostream& out, std::ostream& err) {
  // One set of resource guards for the whole session, exactly like the
  // batch client arms per run.
  support::guard::ScopedLimits guard(guard_limits(session_options));

  std::optional<core::BehaviorCache> cache;
  if (!open_cache(session_options.cache_dir, "shelleyd", err, cache)) {
    return 2;
  }
  // The degenerate single-session transport: a private memo tier and
  // session-local request ids (SessionShared defaults), one line in, one
  // line out.  The socket server runs the very same Session per client.
  SessionShared shared;
  if (cache) shared.cache = &*cache;
  Session session(session_options, shared);

  // Files given on the command line are loaded before the first request,
  // with the loader's stderr going to the real stderr (wire responses
  // only cover wire-initiated loads).
  session.load_initial_files(err);

  namespace log = support::log;
  if (log::enabled()) {
    log::write(log::Level::kInfo, "daemon.start", 0,
               {log::Field("slow_ms", session_options.slow_ms)});
  }

  // Request lines are framed and bounded exactly as on the socket.
  read_request_lines(
      [&in](char* data, std::size_t size) {
        return read_line_piece(in, data, size);
      },
      [&](std::string line) {
        const Session::Outcome outcome = session.handle_line(line);
        out << outcome.response << "\n" << std::flush;
        // Over stdio there is no server distinct from the session, so both
        // shutdown scopes end the loop.
        return !outcome.shutdown;
      },
      [&out](const std::string& reply) { out << reply << "\n" << std::flush; });
  if (log::enabled()) {
    log::write(log::Level::kInfo, "daemon.stop", 0,
               {log::Field("requests", session.requests()),
                log::Field("errors", session.request_errors())});
  }
  return 0;
}

}  // namespace shelley::engine
