// The concurrent multi-session socket server: N clients against one
// SocketServer must each see byte-identical replies to the same command
// sequence against a dedicated single-session stdio daemon; admission
// control must answer over-quota pipelining with structured reject
// replies; per-session shutdown must leave the server serving while
// scope:"server" stops it; a line past the input bound is one structured
// error, and the session keeps serving.
#include "engine/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/daemon.hpp"
#include "engine/driver.hpp"
#include "paper_sources.hpp"
#include "support/guard.hpp"
#include "support/json.hpp"

namespace shelley::engine {
namespace {

/// A long ring of operations so cold verification takes real wall time
/// (the admission test needs the executor busy while requests pipeline).
std::string ring_source(int ops) {
  std::string src = "@sys\nclass Ring:\n";
  for (int i = 0; i < ops; ++i) {
    src += i == 0 ? "    @op_initial_final\n" : "    @op_final\n";
    src += "    def op" + std::to_string(i) + "(self):\n";
    src += "        return [\"op" + std::to_string((i + 1) % ops) + "\"]\n\n";
  }
  return src;
}

/// A blocking NDJSON client over a Unix socket: sends every request line,
/// then reads to EOF and returns the raw reply lines.
std::vector<std::string> socket_session(
    const std::string& socket_path, const std::vector<std::string>& requests) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  // The server may still be between bind and accept; retry briefly.
  int connected = -1;
  for (int attempt = 0; attempt < 100 && connected != 0; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr));
    if (connected != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(connected, 0) << "cannot connect to " << socket_path;
  std::string payload;
  for (const std::string& request : requests) payload += request + "\n";
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> lines;
  std::istringstream stream(received);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("server_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    write_file("valve.py", examples::kValveSource);
    write_file("bad.py", examples::kBadSectorSource);
    write_file("sector.py", examples::kSectorSource);
    write_file("good.py", examples::kGoodSectorSource);
    write_file("ring.py", ring_source(60));
  }

  void write_file(const std::string& name, const std::string& text) {
    std::ofstream stream(dir_ / name, std::ios::binary);
    stream << text;
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string socket_path() const {
    return (dir_ / "shelleyd.sock").string();
  }

  [[nodiscard]] std::string load_request(
      const std::vector<std::string>& files) const {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("load");
    writer.key("files").begin_array();
    for (const std::string& file : files) writer.value(path(file));
    writer.end_array();
    writer.end_object();
    return writer.str();
  }

  [[nodiscard]] std::string update_request(const std::string& file,
                                           const std::string& text) const {
    JsonWriter writer;
    writer.begin_object();
    writer.key("cmd").value("update");
    writer.key("file").value(path(file));
    writer.key("text").value(text);
    writer.end_object();
    return writer.str();
  }

  /// Raw reply lines of a dedicated single-session stdio daemon -- the
  /// byte-identity reference every server session is held to.
  [[nodiscard]] std::vector<std::string> stdio_session(
      const CliOptions& defaults,
      const std::vector<std::string>& requests) const {
    std::string input;
    for (const std::string& request : requests) input += request + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_daemon(defaults, in, out, err), 0);
    std::vector<std::string> lines;
    std::istringstream stream(out.str());
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }

  std::filesystem::path dir_;
};

TEST_F(ServerTest, FourConcurrentClientsMatchDedicatedDaemonsByteForByte) {
  CliOptions defaults;
  defaults.jobs = 2;

  std::string edited = examples::kValveSource;
  const auto pos = edited.find("return [\"test\"]");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 15, "return [\"test\", \"clean\"]");

  // Four distinct sessions -- overlapping files (shared memo hits), edits
  // mid-session, serial and parallel verifies -- all ending in a plain
  // per-session shutdown.  No stats/metrics/trace: those replies are
  // timing-dependent by design.
  const std::vector<std::vector<std::string>> sequences = {
      {R"({"cmd":"version"})", load_request({"valve.py"}),
       R"({"cmd":"verify","jobs":1})", R"({"cmd":"report","jobs":1})",
       R"({"cmd":"shutdown"})"},
      {load_request({"valve.py", "bad.py"}), R"({"cmd":"verify","jobs":1})",
       update_request("valve.py", edited), R"({"cmd":"verify","jobs":1})",
       update_request("valve.py", examples::kValveSource),
       R"({"cmd":"verify","jobs":4})", R"({"cmd":"shutdown"})"},
      {load_request({"sector.py", "good.py"}),
       R"({"cmd":"verify","jobs":4})", R"({"cmd":"report","jobs":1})",
       R"({"cmd":"verify","class":"GoodSector"})", R"({"cmd":"shutdown"})"},
      {load_request({"valve.py", "sector.py", "good.py"}),
       R"({"cmd":"report","jobs":4})", R"({"cmd":"verify","jobs":1})",
       R"({"cmd":"shutdown"})"},
  };

  // References first: each sequence against its own dedicated daemon.
  std::vector<std::vector<std::string>> expected;
  expected.reserve(sequences.size());
  for (const auto& sequence : sequences) {
    expected.push_back(stdio_session(defaults, sequence));
  }

  SocketServer::Options options;
  options.socket_path = socket_path();
  options.max_inflight = 4;
  SocketServer server(defaults, options, /*cache=*/nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  std::vector<std::vector<std::string>> actual(sequences.size());
  std::vector<std::thread> clients;
  clients.reserve(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    clients.emplace_back([&, i] {
      actual[i] = socket_session(socket_path(), sequences[i]);
    });
  }
  for (std::thread& client : clients) client.join();
  server.request_stop();
  serving.join();

  for (std::size_t i = 0; i < sequences.size(); ++i) {
    ASSERT_EQ(actual[i].size(), expected[i].size()) << "client " << i;
    for (std::size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_EQ(actual[i][j], expected[i][j])
          << "client " << i << " reply " << j;
    }
  }
  EXPECT_EQ(server.scheduler().stats().rejected, 0u);
}

TEST_F(ServerTest, PerSessionShutdownLeavesTheServerServing) {
  CliOptions defaults;
  defaults.jobs = 1;
  SocketServer::Options options;
  options.socket_path = socket_path();
  SocketServer server(defaults, options, nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  const auto first = socket_session(
      socket_path(), {R"({"cmd":"version"})", R"({"cmd":"shutdown"})"});
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(parse_json(first[1]).at("ok").as_bool());

  // The server is still accepting after the first session ended.
  const auto second = socket_session(
      socket_path(), {load_request({"valve.py"}),
                      R"({"cmd":"verify","jobs":1})",
                      R"({"cmd":"shutdown"})"});
  ASSERT_EQ(second.size(), 3u);
  EXPECT_NE(parse_json(second[1]).at("output").as_string().find("Valve: ok"),
            std::string::npos);

  server.request_stop();
  serving.join();
}

TEST_F(ServerTest, ServerScopeShutdownStopsTheWholeServer) {
  CliOptions defaults;
  defaults.jobs = 1;
  SocketServer::Options options;
  options.socket_path = socket_path();
  SocketServer server(defaults, options, nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  const auto replies = socket_session(
      socket_path(),
      {R"({"cmd":"version"})", R"({"cmd":"shutdown","scope":"server"})"});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(parse_json(replies[1]).at("ok").as_bool());

  // serve() returns on its own -- no request_stop from the test.
  serving.join();
}

TEST_F(ServerTest, OverQuotaPipeliningGetsStructuredRejectReplies) {
  CliOptions defaults;
  defaults.jobs = 1;
  SocketServer::Options options;
  options.socket_path = socket_path();
  options.max_inflight = 1;
  options.session_queue_depth = 1;
  SocketServer server(defaults, options, nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  // Load first (and read the reply via a dedicated request), then burst 16
  // pipelined verifies: the first is a slow cold verification of the
  // 60-op ring, so the depth-1 queue is full while the reader dispatches
  // the rest -- most of the burst must be rejected synchronously.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket_path();
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int connected = -1;
  for (int attempt = 0; attempt < 100 && connected != 0; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr));
    if (connected != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(connected, 0);
  const auto send_line = [fd](const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  };
  std::string buffer;
  const auto read_line = [fd, &buffer]() -> std::string {
    for (;;) {
      const auto nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  };

  send_line(load_request({"ring.py"}));
  ASSERT_TRUE(parse_json(read_line()).at("ok").as_bool());

  constexpr int kBurst = 16;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += "{\"cmd\":\"verify\",\"jobs\":1}\n";
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string line = read_line();
    ASSERT_FALSE(line.empty());
    const JsonValue reply = parse_json(line);
    if (const JsonValue* flag = reply.find("rejected")) {
      EXPECT_TRUE(flag->as_bool());
      EXPECT_FALSE(reply.at("ok").as_bool());
      EXPECT_NE(reply.at("error").as_string().find("queue full"),
                std::string::npos);
      ++rejected;
    } else {
      EXPECT_TRUE(reply.at("ok").as_bool());
      ++accepted;
    }
  }
  EXPECT_EQ(accepted + rejected, kBurst);
  EXPECT_GE(rejected, 1);
  EXPECT_GE(accepted, 1);
  EXPECT_EQ(server.scheduler().stats().rejected,
            static_cast<std::uint64_t>(rejected));

  send_line(R"({"cmd":"shutdown"})");
  EXPECT_TRUE(parse_json(read_line()).at("ok").as_bool());
  ::close(fd);
  server.request_stop();
  serving.join();
}

TEST_F(ServerTest, MalformedRequestIsAnErrorReplyNotACrash) {
  CliOptions defaults;
  SocketServer::Options options;
  options.socket_path = socket_path();
  SocketServer server(defaults, options, nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  const auto replies = socket_session(
      socket_path(), {"this is not json", R"({"cmd":"nonsense"})",
                      R"({"cmd":"version"})", R"({"cmd":"shutdown"})"});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_FALSE(parse_json(replies[0]).at("ok").as_bool());
  EXPECT_FALSE(parse_json(replies[1]).at("ok").as_bool());
  EXPECT_TRUE(parse_json(replies[2]).at("ok").as_bool());
  EXPECT_TRUE(parse_json(replies[3]).at("ok").as_bool());

  server.request_stop();
  serving.join();
}

TEST_F(ServerTest, OverLongLineIsOneBoundedErrorAndTheSessionKeepsServing) {
  support::guard::Limits limits;
  limits.max_input_bytes = 4096;
  const support::guard::ScopedLimits scoped(limits);
  CliOptions defaults;
  SocketServer::Options options;
  options.socket_path = socket_path();
  SocketServer server(defaults, options, nullptr);
  std::ostringstream err;
  ASSERT_TRUE(server.start(err)) << err.str();
  std::thread serving([&server] { EXPECT_EQ(server.serve(), 0); });

  // A line past the bound is answered from the reader before anything
  // after it is queued; a line exactly at the bound is a request like any
  // other (and not JSON).
  const auto replies = socket_session(
      socket_path(), {std::string(10000, 'a'), R"({"cmd":"version"})",
                      std::string(4096, 'b'), R"({"cmd":"shutdown"})"});
  ASSERT_EQ(replies.size(), 4u);
  const JsonValue bounded = parse_json(replies[0]);
  EXPECT_FALSE(bounded.at("ok").as_bool());
  EXPECT_NE(bounded.at("error").as_string().find("4096 bytes"),
            std::string::npos);
  EXPECT_TRUE(parse_json(replies[1]).at("ok").as_bool());
  const JsonValue at_limit = parse_json(replies[2]);
  EXPECT_FALSE(at_limit.at("ok").as_bool());
  EXPECT_EQ(at_limit.at("error").as_string().find("4096 bytes"),
            std::string::npos);
  EXPECT_TRUE(parse_json(replies[3]).at("ok").as_bool());

  server.request_stop();
  serving.join();
}

}  // namespace
}  // namespace shelley::engine
