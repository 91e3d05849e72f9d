// editor_session: one client connection to an in-process SocketServer
// (the `shelleyd --socket` transport).  One operation is an `update` with
// a seeded edit followed by a `verify` with one job; its latency is the
// pair, edit to verdict.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "corpus.hpp"
#include "engine/query.hpp"
#include "engine/render.hpp"
#include "engine/server.hpp"
#include "engine/session.hpp"
#include "engine/workspace.hpp"
#include "replay.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace shelley;

/// One blocking NDJSON exchange at a time: send a line, read one reply.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + socket_path);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    for (std::size_t sent = 0; sent < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (std::size_t scanned = 0;;) {
      const std::size_t nl = buffer_.find('\n', scanned);
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      scanned = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection lost");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A running server plus its one client.
class Editor {
 public:
  explicit Editor(const std::string& socket_path) {
    engine::CliOptions defaults;
    defaults.jobs = 1;
    engine::SocketServer::Options options;
    options.socket_path = socket_path;
    options.max_inflight = 1;
    server_ = std::make_unique<engine::SocketServer>(defaults, options,
                                                     nullptr);
    std::ostringstream err;
    if (!server_->start(err)) throw std::runtime_error(err.str());
    serving_ = std::thread([this] { (void)server_->serve(); });
    try {
      client_ = std::make_unique<Client>(socket_path);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Editor() { stop(); }
  Editor(const Editor&) = delete;
  Editor& operator=(const Editor&) = delete;

  Client& client() { return *client_; }

 private:
  void stop() {
    client_.reset();
    server_->request_stop();
    if (serving_.joinable()) serving_.join();
  }
  std::unique_ptr<engine::SocketServer> server_;
  std::thread serving_;
  std::unique_ptr<Client> client_;
};

std::string update_line(const std::string& path, const std::string& text) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("cmd").value("update");
  writer.key("file").value(path);
  writer.key("text").value(text);
  writer.end_object();
  return writer.str();
}

const std::string kVerifyLine = R"({"cmd":"verify","jobs":1})";

/// The owner-free form of the expected findings, matching what the text
/// report shows: failing class names, "field:Class" per subsystem error
/// and "claim:formula" per failed claim, with repeats.
std::vector<std::string> report_findings(const Expected& expected) {
  std::vector<std::string> out;
  for (const std::string& finding : expected.findings) {
    const std::size_t slash = finding.find('/');
    out.push_back(slash == std::string::npos ? finding
                                             : finding.substr(slash + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string check_update(const std::string& reply) {
  const JsonValue value = parse_json(reply);
  if (!value.at("ok").as_bool()) return "update refused: " + reply;
  if (value.at("status").as_number() != 0 ||
      !value.at("errors").as_string().empty()) {
    return "update reported load errors: " + reply.substr(0, 200);
  }
  return "";
}

/// Compares a verify reply with the known answer.
std::string check_verify(const std::string& reply, const Expected& expected,
                         std::size_t classes) {
  const JsonValue value = parse_json(reply);
  if (!value.at("ok").as_bool()) return "verify refused: " + reply;
  const auto want = report_findings(expected);
  const int status = want.empty() ? 0 : 1;
  if (value.at("status").as_number() != status) {
    return "verify status " + std::to_string(value.at("status").as_number()) +
           ", expected " + std::to_string(status);
  }
  std::vector<std::string> found;
  std::size_t verdicts = 0;
  std::istringstream lines(value.at("output").as_string());
  std::size_t inputs = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("  project/")) {
      // The per-file summary of a multi-file run: every file loads.
      if (!line.ends_with(": ok")) return "input not ok: " + line;
      ++inputs;
    } else if (line.ends_with(": ok")) {
      ++verdicts;
    } else if (line.ends_with(": FAILED")) {
      ++verdicts;
      found.push_back(line.substr(0, line.size() - 8));
    } else if (line.starts_with("  * ")) {
      // "  * Class 'field': detail"
      const std::size_t open = line.find(" '");
      const std::size_t close = line.find("':", open + 2);
      if (open == std::string::npos || close == std::string::npos) continue;
      found.push_back(line.substr(open + 2, close - open - 2) + ":" +
                      line.substr(4, open - 4));
    } else if (line.starts_with("Formula: ")) {
      found.push_back("claim:" + line.substr(9));
    }
  }
  std::sort(found.begin(), found.end());
  if (verdicts != classes || inputs != classes) {
    return "verify listed " + std::to_string(verdicts) + " classes and " +
           std::to_string(inputs) + " files, expected " +
           std::to_string(classes) + " of each";
  }
  if (found != want) {
    std::string message = "verify found [";
    for (const auto& f : found) message += f + " ";
    message += "], expected [";
    for (const auto& w : want) message += w + " ";
    return message + "]";
  }
  return "";
}

/// The in-process twins of the server's session, kept in step with it, for
/// the traced run: a Session (request time without the socket) and a bare
/// Workspace + QueryEngine (the engine calls one by one).
struct Twins {
  Twins() : session(defaults()), engine(workspace) {}
  static engine::CliOptions defaults() {
    engine::CliOptions options;
    options.jobs = 1;
    return options;
  }
  engine::Session session;
  engine::Workspace workspace;
  engine::QueryEngine engine;
};

}  // namespace

Result run_editor_session(const Args& args) {
  Result result;
  std::filesystem::create_directories(".bench_build");
  const std::string socket_base =
      ".bench_build/editor-" + std::to_string(::getpid());

  // Set-up, on a fresh server each time: server start, connect, project
  // load (one update per file) and the first full verify.  The first one
  // stays up for the measured operations.
  std::size_t servers = 0;
  const auto setup = [&](std::unique_ptr<Editor>& editor,
                         std::unique_ptr<EditorProject>& project) {
    project = std::make_unique<EditorProject>(args.seed);
    std::vector<std::string> lines;
    for (const auto& [path, text] : project->files()) {
      lines.push_back(update_line(path, text));
    }
    const std::string socket_path =
        socket_base + "-" + std::to_string(servers++) + ".sock";
    const Clock::time_point start = Clock::now();
    editor = std::make_unique<Editor>(socket_path);
    std::vector<std::string> replies;
    for (const std::string& line : lines) {
      replies.push_back(editor->client().request(line));
    }
    const std::string verified = editor->client().request(kVerifyLine);
    const double seconds = ms_between(start, Clock::now()) / 1000;
    for (const std::string& reply : replies) {
      const std::string why = check_update(reply);
      if (!why.empty()) result.record("set-up: " + why);
    }
    const std::string why =
        check_verify(verified, project->expected(), project->class_count());
    if (!why.empty()) result.record("set-up: " + why);
    return seconds;
  };
  std::unique_ptr<Editor> editor;
  std::unique_ptr<EditorProject> project;
  std::vector<double> setups = {setup(editor, project)};

  const std::size_t ops = op_count(args.seconds, 300, 200);
  if (!args.trace) {
    std::vector<double> latencies;
    latencies.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      if (setup_due(i, ops, setups.size())) {
        std::unique_ptr<Editor> spare_editor;
        std::unique_ptr<EditorProject> spare_project;
        setups.push_back(setup(spare_editor, spare_project));
      }
      const EditorProject::Edit edit = project->next_edit();
      const std::string line = update_line(edit.path, edit.text);
      const Expected expected = project->expected();
      const Clock::time_point start = Clock::now();
      const std::string updated = editor->client().request(line);
      const std::string verified = editor->client().request(kVerifyLine);
      latencies.push_back(ms_between(start, Clock::now()));
      std::string why = check_update(updated);
      if (why.empty()) {
        why = check_verify(verified, expected, project->class_count());
      }
      result.record(why.empty() ? why : edit.kind + " edit: " + why);
    }
    editor.reset();
    add_end_to_end(result, std::move(latencies), static_cast<double>(ops),
                   std::move(setups));
    return result;
  }

  // Traced: each edit goes to the server (client spans), then to the
  // in-process Session twin (request time without the transport), then to
  // the bare engine twin (load, query and render one call at a time), and
  // then through the replay.  Every other operation runs without spans,
  // for the overhead; the twins follow every edit either way.
  const auto traced_ops =
      static_cast<std::size_t>(static_cast<double>(ops) * kTracedShare);
  Twins twins;
  for (const auto& [path, text] : project->files()) {
    (void)twins.session.handle_line(update_line(path, text));
    twins.engine.apply_update(twins.workspace.update_source(path, text));
  }
  (void)twins.session.handle_line(kVerifyLine);
  (void)twins.engine.verify_all(1);
  twins.workspace.rewind_to_loaded();

  std::vector<double> untraced;
  std::vector<double> traced;
  Tracer tracer;
  ReplayCounts counts;
  EngineCounts engine_counts;
  double invalidated = 0;
  for (std::size_t i = 0; i < 2 * traced_ops; ++i) {
    const bool tracing = i % 2 == 1;
    const engine::MemoStats memo_before = twins.engine.memo().stats();
    const engine::ParseStats parse_before = twins.workspace.parse_stats();
    Tracer* const t = tracing ? &tracer : nullptr;
    const EditorProject::Edit edit = project->next_edit();
    const std::string line = update_line(edit.path, edit.text);
    const Expected expected = project->expected();
    tracer.set_op(i);
    const Probe op(t, "op");
    const Clock::time_point start = Clock::now();
    std::string updated;
    std::string verified;
    {
      const Probe span(t, "client.update");
      updated = editor->client().request(line);
    }
    {
      const Probe span(t, "client.verify");
      verified = editor->client().request(kVerifyLine);
    }
    (tracing ? traced : untraced).push_back(ms_between(start, Clock::now()));
    std::string why = check_update(updated);
    if (why.empty()) {
      why = check_verify(verified, expected, project->class_count());
    }
    result.record(why.empty() ? why : edit.kind + " edit: " + why);
    {
      const Probe span(t, "engine.request");
      (void)twins.session.handle_line(line);
      (void)twins.session.handle_line(kVerifyLine);
    }
    engine::UpdateResult update;
    {
      const Probe span(t, "engine.load");
      update = twins.workspace.update_source(edit.path, edit.text);
      const std::size_t dropped = twins.engine.apply_update(update);
      if (tracing) invalidated += static_cast<double>(dropped);
    }
    std::optional<core::Report> report;
    {
      const Probe span(t, "engine.query");
      report.emplace(twins.engine.verify_all(1));
    }
    {
      const Probe span(t, "engine.render");
      std::ostringstream out;
      engine::render_text_report(
          *report, twins.workspace.verifier(),
          twins.workspace.load_diag_end(), twins.workspace.summaries(),
          twins.workspace.load_failed(), out);
    }
    twins.workspace.rewind_to_loaded();
    if (!tracing) continue;
    engine_counts.add(memo_before, twins.engine.memo().stats(),
                      parse_before, twins.workspace.parse_stats());
    // The edited file through the front end, every key again, and the
    // pipeline of the classes the edit re-keyed (what verify re-runs).
    upy::Module module;
    (void)replay_front(tracer, counts, edit.text, module);
    const core::Verifier& verifier = twins.workspace.verifier();
    replay_keys(tracer, verifier);
    std::vector<const core::ClassSpec*> changed;
    for (const std::string& name : update.changed) {
      if (const core::ClassSpec* spec = verifier.find_class(name)) {
        changed.push_back(spec);
      }
    }
    replay_checks(tracer, counts, changed,
                  [&verifier](const std::string& name) {
                    return verifier.find_class(name);
                  });
  }
  editor.reset();

  LayerValues values;
  add_span_layers(values, tracer, traced_ops, counts, engine_counts);
  const double n = static_cast<double>(traced_ops);
  values["engine.invalidated_per_edit"] = n > 0 ? invalidated / n : 0;
  values["engine.edits"] = n;
  const double request_ms = tracer.layer("engine.request").total_ms / n;
  double client_ms = 0;
  for (double ms : traced) client_ms += ms;
  values["engine.request_ms"] = request_ms;
  values["engine.transport_ms"] = client_ms / n - request_ms;
  add_layer_metrics(result, values, std::move(untraced), std::move(traced));
  if (!tracer.write(trace_path(args), context_json(args))) {
    result.failures.push_back("cannot write " + trace_path(args));
  }
  return result;
}

}  // namespace perfbench
