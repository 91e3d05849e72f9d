#include "engine/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "engine/session.hpp"
#include "shelley/cache.hpp"
#include "support/guard.hpp"
#include "support/json.hpp"
#include "support/log.hpp"

namespace shelley::engine {

namespace {

namespace log = support::log;

/// How long serve() sleeps in poll() before re-checking the stop flag and
/// reaping finished connections.
constexpr int kPollMs = 50;

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a client that vanished mid-reply must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

std::string reject_reply(Scheduler::Admission admission) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("ok").value(false);
  writer.key("error").value(
      admission == Scheduler::Admission::kRejectedQueueFull
          ? "server busy: session queue full"
          : "session is shutting down");
  writer.key("rejected").value(true);
  writer.end_object();
  return writer.str();
}

}  // namespace

SocketServer::SocketServer(const CliOptions& defaults,
                           const Options& options,
                           core::BehaviorCache* cache)
    : defaults_(defaults),
      options_(options),
      cache_(cache),
      scheduler_(Scheduler::Options{options.max_inflight,
                                    options.session_queue_depth}) {}

SocketServer::~SocketServer() {
  request_stop();
  shutdown_all();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    listen_fd_ = -1;
  }
}

bool SocketServer::start(std::ostream& err) {
  err_ = &err;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    err << "shelleyd: socket path too long: '" << options_.socket_path
        << "'\n";
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    err << "shelleyd: cannot create socket: " << std::strerror(errno)
        << "\n";
    return false;
  }
  // A stale file from a crashed previous run would make bind fail with
  // EADDRINUSE; remove it.  (A *live* server's socket is removed too --
  // single-owner paths are the caller's contract.)
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    err << "shelleyd: cannot bind '" << options_.socket_path
        << "': " << std::strerror(errno) << "\n";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    err << "shelleyd: cannot listen on '" << options_.socket_path
        << "': " << std::strerror(errno) << "\n";
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    listen_fd_ = -1;
    return false;
  }
  return true;
}

int SocketServer::serve() {
  if (log::enabled()) {
    log::write(log::Level::kInfo, "server.start", 0,
               {log::Field("socket", options_.socket_path),
                log::Field("executors", static_cast<std::uint64_t>(
                                            scheduler_.executor_count())),
                log::Field("queue_depth", static_cast<std::uint64_t>(
                                              options_.session_queue_depth))});
  }
  while (!stop_requested_.load()) {
    pollfd entry{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&entry, 1, kPollMs);
    reap_finished();
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    if ((entry.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->scheduler_id = scheduler_.add_session();
    SessionShared shared;
    shared.cache = cache_;
    shared.memo = &shared_memo_;
    shared.request_serial = &request_serial_;
    conn->session = std::make_unique<Session>(defaults_, shared);
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { reader_loop(*raw); });
    if (log::enabled()) {
      log::write(log::Level::kInfo, "server.accept", 0,
                 {log::Field("session", raw->scheduler_id)});
    }
  }
  shutdown_all();
  if (log::enabled()) {
    const Scheduler::Stats stats = scheduler_.stats();
    log::write(log::Level::kInfo, "server.stop", 0,
               {log::Field("requests", stats.executed),
                log::Field("rejected", stats.rejected)});
  }
  return 0;
}

void SocketServer::reader_loop(Connection& conn) {
  // Command-line files load into every fresh session before its first
  // request, exactly like the stdio daemon; the loader's stderr goes to
  // the server's stderr (wire responses only cover wire-initiated loads).
  {
    std::ostringstream load_err;
    conn.session->load_initial_files(load_err);
    const std::string text = load_err.str();
    if (!text.empty() && err_ != nullptr) {
      const std::lock_guard<std::mutex> lock(err_mutex_);
      *err_ << text;
    }
  }
  // Over-long lines are answered from this thread, like a scheduler
  // reject; the session keeps serving.
  read_request_lines(
      [&conn](char* data, std::size_t size) -> std::size_t {
        for (;;) {
          const ssize_t got = ::recv(conn.fd, data, size, 0);
          if (got < 0 && errno == EINTR) continue;
          // EOF or error: the session is over.
          return got > 0 ? static_cast<std::size_t>(got) : 0;
        }
      },
      [this, &conn](std::string line) {
        dispatch_line(conn, std::move(line));
        return true;
      },
      [this, &conn](const std::string& reply) { write_line(conn, reply); });
  // Drain this session's queued requests (their replies still go out),
  // then unregister.  Tasks never touch the connection after this
  // returns, so the serve thread may reap it.
  scheduler_.remove_session(conn.scheduler_id);
  if (log::enabled()) {
    log::write(log::Level::kInfo, "server.disconnect", 0,
               {log::Field("session", conn.scheduler_id),
                log::Field("requests", conn.session->requests()),
                log::Field("errors", conn.session->request_errors())});
  }
  conn.done.store(true);
}

void SocketServer::dispatch_line(Connection& conn, std::string line) {
  Connection* raw = &conn;
  const Scheduler::Admission admission = scheduler_.submit(
      conn.scheduler_id, [this, raw, line = std::move(line)] {
        const Session::Outcome outcome = raw->session->handle_line(line);
        write_line(*raw, outcome.response);
        if (outcome.shutdown) {
          // Unblocks the connection's reader; the client sees EOF after
          // the shutdown reply, exactly like the stdio daemon exiting.
          ::shutdown(raw->fd, SHUT_RDWR);
        }
        if (outcome.shutdown_server) request_stop();
      });
  if (admission != Scheduler::Admission::kAccepted) {
    // Rejections are answered synchronously from the reader thread -- by
    // design the one reply that may overtake queued responses (a client
    // that pipelines past its quota has already abandoned strict
    // request/reply alternation).
    write_line(conn, reject_reply(admission));
  }
}

void SocketServer::write_line(Connection& conn, const std::string& line) {
  const std::lock_guard<std::mutex> lock(conn.write_mutex);
  std::string framed = line;
  framed.push_back('\n');
  send_all(conn.fd, framed.data(), framed.size());
}

void SocketServer::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!(*it)->done.load()) {
      ++it;
      continue;
    }
    if ((*it)->reader.joinable()) (*it)->reader.join();
    ::close((*it)->fd);
    it = connections_.erase(it);
  }
}

void SocketServer::shutdown_all() {
  for (const std::unique_ptr<Connection>& conn : connections_) {
    ::shutdown(conn->fd, SHUT_RDWR);  // readers unblock and drain
  }
  for (const std::unique_ptr<Connection>& conn : connections_) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }
  connections_.clear();
}

int run_server(const CliOptions& options, std::ostream& err) {
  // One set of process-wide resource guards, exactly like run_daemon
  // (they are global, so per-session arming would race).
  support::guard::ScopedLimits guard(guard_limits(options));

  std::optional<core::BehaviorCache> cache;
  if (!open_cache(options.cache_dir, "shelleyd", err, cache)) return 2;
  SocketServer::Options server_options;
  server_options.socket_path = *options.socket_path;
  server_options.max_inflight = options.max_inflight;
  server_options.session_queue_depth = options.session_queue_depth;
  SocketServer server(options, server_options,
                      cache ? &*cache : nullptr);
  if (!server.start(err)) return 2;
  return server.serve();
}

int run_client(const CliOptions& options, std::istream& in,
               std::ostream& out, std::ostream& err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string& path = *options.connect_path;
  if (path.size() >= sizeof(addr.sun_path)) {
    err << "shelleyd: socket path too long: '" << path << "'\n";
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    err << "shelleyd: cannot create socket: " << std::strerror(errno)
        << "\n";
    return 2;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    err << "shelleyd: cannot connect to '" << path
        << "': " << std::strerror(errno) << "\n";
    ::close(fd);
    return 2;
  }
  // Full-duplex bridge: server bytes stream to `out` as they arrive, so
  // a shell pipeline over --connect behaves exactly like one over the
  // stdio daemon.
  std::thread pump([fd, &out] {
    char chunk[4096];
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      out.write(chunk, static_cast<std::streamsize>(got));
      out.flush();
    }
  });
  // Lines go out in bounded pieces; the server bounds and answers them.
  char piece[4096];
  for (std::size_t got; (got = read_line_piece(in, piece, sizeof piece)) > 0;) {
    if (!send_all(fd, piece, got)) break;
  }
  ::shutdown(fd, SHUT_WR);  // stdin EOF: let the server finish replying
  pump.join();
  ::close(fd);
  return 0;
}

}  // namespace shelley::engine
