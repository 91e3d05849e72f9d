// Port of the original tools/shelleyc.cpp run() over the query engine.
// Message prefixes stay "shelleyc" on every path both front ends share:
// the daemon's contract is "byte-identical to a cold shelleyc run", so
// even its notices must carry the client's name.
#include "engine/driver.hpp"

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <random>
#include <string>

#include "engine/query.hpp"
#include "engine/render.hpp"
#include "engine/workspace.hpp"
#include "fsm/ops.hpp"
#include "fsm/to_regex.hpp"
#include "shelley/automata.hpp"
#include "shelley/cache.hpp"
#include "shelley/fingerprint.hpp"
#include "shelley/graph.hpp"
#include "shelley/monitor.hpp"
#include "shelley/report_json.hpp"
#include "shelley/sampler.hpp"
#include "support/guard.hpp"
#include "viz/dot.hpp"

namespace shelley::engine {

namespace {

const core::ClassSpec* require_class(const core::Verifier& verifier,
                                     const std::string& name,
                                     std::ostream& err) {
  const core::ClassSpec* spec = verifier.find_class(name);
  if (spec == nullptr) {
    err << "shelleyc: unknown class '" << name << "'\n";
  }
  return spec;
}

core::SystemModel build_model(core::Verifier& verifier,
                              const core::ClassSpec& spec) {
  const auto behaviors = core::extract_behaviors(
      spec, verifier.symbols(), verifier.diagnostics());
  return core::build_system_model(spec, behaviors, verifier.symbols(),
                                  verifier.diagnostics());
}

}  // namespace

void print_usage(std::ostream& out, const std::string& tool) {
  out << "usage: " << tool << " [options] <file.py>...\n"
         "  --class NAME        verify only NAME\n"
         "  --json              print a JSON report\n"
         "  --quiet             suppress the text report\n"
         "  --dot-class NAME    emit the class behavior diagram (DOT)\n"
         "  --dot-model NAME    emit the dependency-graph model (DOT)\n"
         "  --dot-system NAME   emit the composite system automaton (DOT)\n"
         "  --dot-usage NAME    emit the minimal valid-usage DFA (DOT)\n"
         "  --usage-regex NAME  print the valid-usage language as a regex\n"
         "  --smv NAME          emit a NuSMV model of the system behavior\n"
         "  --monitor NAME      read operation calls from stdin, one per\n"
         "                      line, and report a verdict for each\n"
         "  --sample NAME [N]   print N (default 5) valid complete usages\n"
         "  --jobs N            verify classes on up to N threads (default:\n"
         "                      hardware concurrency; 1 = serial)\n"
         "  --stats             print per-class automata statistics and\n"
         "                      pipeline counters (with --json: embed them)\n"
         "  --cache DIR         incremental verification: consult (and\n"
         "                      fill) an on-disk behavior cache in DIR\n"
         "  --cache-stats       print cache hit/miss/invalidation counters\n"
         "                      (stderr with --json, so stdout stays JSON)\n"
         "  --trace-out FILE    write a Chrome trace-event JSON timeline of\n"
         "                      the whole run (load in Perfetto)\n"
         "  --dfa-budget N      warn when a class's minimized DFA exceeds\n"
         "                      N states (0 = off)\n"
         "  --ltlf-engine E     answer @claim formulas with E: 'dfa' (the\n"
         "                      default progression-DFA oracle), 'tableau'\n"
         "                      (the on-the-fly frame solver), or 'both'\n"
         "                      (run both, abort on any disagreement)\n"
         "  --lint-claims       warn about unsatisfiable or trivially-true\n"
         "                      @claim formulas\n"
         "  --max-states N      abort (as an error, not a crash) any\n"
         "                      automaton construction exceeding N states\n"
         "                      (0 = unlimited)\n"
         "  --timeout-ms N      abort verification once N ms of wall clock\n"
         "                      have elapsed (0 = no deadline)\n"
         "  --max-input-bytes N reject source files larger than N bytes\n"
         "                      (0 = default, 8 MiB)\n"
         "  --max-depth N       cap parser/visitor recursion depth\n"
         "                      (0 = default, 256)\n"
         "  --slow-ms N         daemon: log requests slower than N ms to\n"
         "                      the structured log (0 = off)\n"
         "  --socket PATH       daemon: serve concurrent sessions over a\n"
         "                      Unix-domain socket at PATH (stdio stays\n"
         "                      the single-session default)\n"
         "  --connect PATH      daemon: bridge stdin/stdout to the server\n"
         "                      listening at PATH\n"
         "  --max-inflight N    server: run at most N requests at once\n"
         "                      across all sessions (0 = hardware default)\n"
         "  --session-queue N   server: reject a session's requests once N\n"
         "                      are already pending (default 16)\n"
         "  --version           print the toolchain version and exit\n";
}

std::optional<CliOptions> parse_cli_args(int argc, char** argv,
                                         const std::string& tool,
                                         std::ostream& err,
                                         bool require_files) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--version") {
      options.version = true;
      return options;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--class") {
      options.verify_class = next();
      if (!options.verify_class) return std::nullopt;
    } else if (arg == "--dot-class") {
      options.dot_class = next();
      if (!options.dot_class) return std::nullopt;
    } else if (arg == "--dot-model") {
      options.dot_model = next();
      if (!options.dot_model) return std::nullopt;
    } else if (arg == "--dot-system") {
      options.dot_system = next();
      if (!options.dot_system) return std::nullopt;
    } else if (arg == "--dot-usage") {
      options.dot_usage = next();
      if (!options.dot_usage) return std::nullopt;
    } else if (arg == "--usage-regex") {
      options.usage_regex = next();
      if (!options.usage_regex) return std::nullopt;
    } else if (arg == "--smv") {
      options.smv = next();
      if (!options.smv) return std::nullopt;
    } else if (arg == "--monitor") {
      options.monitor = next();
      if (!options.monitor) return std::nullopt;
    } else if (arg == "--jobs" || arg == "-j") {
      const auto value = next();
      if (!value) return std::nullopt;
      const long parsed = std::atol(value->c_str());
      if (parsed < 1) {
        err << tool << ": --jobs needs a positive integer\n";
        return std::nullopt;
      }
      options.jobs = static_cast<std::size_t>(parsed);
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--cache") {
      options.cache_dir = next();
      if (!options.cache_dir) return std::nullopt;
    } else if (arg == "--cache-stats") {
      options.cache_stats = true;
    } else if (arg == "--ltlf-engine") {
      const auto value = next();
      if (!value) return std::nullopt;
      if (*value == "dfa") {
        options.ltlf_engine = core::LtlfEngine::kDfa;
      } else if (*value == "tableau") {
        options.ltlf_engine = core::LtlfEngine::kTableau;
      } else if (*value == "both") {
        options.ltlf_engine = core::LtlfEngine::kBoth;
      } else {
        err << tool << ": --ltlf-engine needs 'dfa', 'tableau', or 'both'"
            << " (got '" << *value << "')\n";
        return std::nullopt;
      }
    } else if (arg == "--lint-claims") {
      options.lint_claims = true;
    } else if (arg == "--trace-out") {
      options.trace_out = next();
      if (!options.trace_out) return std::nullopt;
    } else if (arg == "--socket") {
      options.socket_path = next();
      if (!options.socket_path) return std::nullopt;
    } else if (arg == "--connect") {
      options.connect_path = next();
      if (!options.connect_path) return std::nullopt;
    } else if (arg == "--max-inflight" || arg == "--session-queue") {
      const auto value = next();
      if (!value) return std::nullopt;
      const long parsed = std::atol(value->c_str());
      if (parsed < 0 || (arg == "--session-queue" && parsed < 1)) {
        err << tool << ": " << arg << " needs a "
            << (arg == "--session-queue" ? "positive" : "non-negative")
            << " integer\n";
        return std::nullopt;
      }
      if (arg == "--max-inflight") {
        options.max_inflight = static_cast<std::size_t>(parsed);
      } else {
        options.session_queue_depth = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--dfa-budget" || arg == "--max-states" ||
               arg == "--timeout-ms" || arg == "--max-input-bytes" ||
               arg == "--max-depth" || arg == "--slow-ms") {
      const auto value = next();
      if (!value) return std::nullopt;
      const long parsed = std::atol(value->c_str());
      if (parsed < 0) {
        err << tool << ": " << arg << " needs a non-negative integer\n";
        return std::nullopt;
      }
      const auto count = static_cast<std::size_t>(parsed);
      if (arg == "--dfa-budget") {
        options.dfa_budget = count;
      } else if (arg == "--max-states") {
        options.max_states = count;
      } else if (arg == "--timeout-ms") {
        options.timeout_ms = static_cast<std::uint64_t>(parsed);
      } else if (arg == "--max-input-bytes") {
        options.max_input_bytes = count;
      } else if (arg == "--slow-ms") {
        options.slow_ms = static_cast<std::uint64_t>(parsed);
      } else {
        options.max_depth = count;
      }
    } else if (arg == "--sample") {
      options.sample = next();
      if (!options.sample) return std::nullopt;
      // Optional count argument.
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[i + 1][0])) != 0) {
        options.sample_count = std::atoi(argv[++i]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      err << tool << ": unknown option '" << arg << "'\n";
      return std::nullopt;
    } else {
      options.files.push_back(arg);
    }
  }
  if (require_files && options.files.empty()) return std::nullopt;
  return options;
}

support::guard::Limits guard_limits(const CliOptions& options) {
  support::guard::Limits limits;
  if (options.max_depth > 0) limits.max_recursion_depth = options.max_depth;
  if (options.max_input_bytes > 0) {
    limits.max_input_bytes = options.max_input_bytes;
  }
  limits.max_states = options.max_states;
  limits.timeout_ms = options.timeout_ms;
  return limits;
}

bool open_cache(const std::optional<std::string>& directory,
                std::string_view tool, std::ostream& err,
                std::optional<core::BehaviorCache>& cache) {
  if (!directory) return true;
  try {
    cache.emplace(*directory);
  } catch (const std::exception& error) {
    err << tool << ": " << error.what() << "\n";
    return false;
  }
  return true;
}

bool load_inputs(Workspace& workspace,
                 const std::vector<std::string>& files, std::ostream& err) {
  const std::size_t first_file = workspace.summaries().size();
  for (const std::string& path : files) {
    workspace.load_file(path);
  }
  // One renderer for the loader's stderr protocol, shared with the
  // daemon's load/update responses.
  err << render_load_errors(workspace.summaries(),
                            workspace.file_diag_ranges(),
                            workspace.verifier().diagnostics().diagnostics(),
                            first_file);
  return workspace.load_failed();
}

int run_cli(const CliOptions& options, QueryEngine& engine,
            std::istream& in, std::ostream& out, std::ostream& err) {
  Workspace& workspace = engine.workspace();
  core::Verifier& verifier = workspace.verifier();
  const bool load_failed = workspace.load_failed();
  const std::size_t load_diag_end = workspace.load_diag_end();
  // Input problems dominate the exit status: even when an artifact mode or
  // the verification below succeeds on the surviving files, a failed input
  // makes the run exit 2.
  const int load_status = load_failed ? 2 : 0;

  // Artifact emission modes short-circuit verification.
  if (options.dot_class) {
    const auto* spec = require_class(verifier, *options.dot_class, err);
    if (spec == nullptr) return 2;
    out << viz::dot_class_diagram(*spec);
    return load_status;
  }
  if (options.dot_model) {
    const auto* spec = require_class(verifier, *options.dot_model, err);
    if (spec == nullptr) return 2;
    const core::DependencyGraph graph =
        core::DependencyGraph::build(*spec, verifier.diagnostics());
    out << viz::dot_dependency_graph(*spec, graph);
    return load_status;
  }
  if (options.dot_system) {
    const auto* spec = require_class(verifier, *options.dot_system, err);
    if (spec == nullptr) return 2;
    const core::SystemModel model = build_model(verifier, *spec);
    out << viz::dot_system_model(model, verifier.symbols());
    return load_status;
  }
  if (options.dot_usage) {
    const auto* spec = require_class(verifier, *options.dot_usage, err);
    if (spec == nullptr) return 2;
    const fsm::Dfa usage = core::usage_dfa(*spec, verifier.symbols());
    out << viz::dot_dfa(usage, verifier.symbols(), spec->name + "_usage");
    return load_status;
  }
  if (options.monitor) {
    const auto* spec = require_class(verifier, *options.monitor, err);
    if (spec == nullptr) return 2;
    // The compiled-table query hides the tiering (memo, then disk cache,
    // then the usage_dfa/compile pipeline); a cold
    // answer is the table the Monitor constructor would have compiled.
    core::Monitor monitor(verifier.symbols(), engine.compiled_table(*spec));
    std::string op;
    bool any_violation = false;
    while (in >> op) {
      const core::Verdict verdict = monitor.feed(op);
      out << op << ": " << core::to_string(verdict) << "\n";
      any_violation = any_violation ||
                      verdict == core::Verdict::kViolation;
    }
    out << (monitor.completed() ? "complete" : "incomplete") << "\n";
    if (load_failed) return 2;
    return any_violation || !monitor.completed() ? 1 : 0;
  }
  if (options.sample) {
    const auto* spec = require_class(verifier, *options.sample, err);
    if (spec == nullptr) return 2;
    core::TraceSampler sampler(*spec, verifier.symbols(),
                               std::random_device{}());
    for (int i = 0; i < options.sample_count; ++i) {
      const auto trace = sampler.sample(16);
      if (trace.empty()) {
        out << "(empty usage)\n";
        continue;
      }
      for (std::size_t j = 0; j < trace.size(); ++j) {
        out << (j == 0 ? "" : ", ") << trace[j];
      }
      out << "\n";
    }
    return load_status;
  }
  if (options.usage_regex) {
    const auto* spec = require_class(verifier, *options.usage_regex, err);
    if (spec == nullptr) return 2;
    const fsm::Nfa usage = core::usage_nfa(*spec, verifier.symbols());
    const rex::Regex regex = fsm::to_regex(usage);
    out << rex::to_string(regex, verifier.symbols()) << "\n";
    return load_status;
  }
  if (options.smv) {
    const auto* spec = require_class(verifier, *options.smv, err);
    if (spec == nullptr) return 2;
    const SmvArtifact artifact = engine.smv_model(*spec);
    for (const std::string& claim : artifact.skipped_claims) {
      err << "shelleyc: skipping unparsable claim: " << claim << "\n";
    }
    out << artifact.text;
    return load_status;
  }

  // Verification.
  core::Report report;
  if (options.verify_class) {
    report.classes.push_back(engine.verify_class(*options.verify_class));
  } else {
    report = engine.verify_all(options.jobs);
  }

  if (options.json) {
    out << core::report_to_json(report, verifier, options.stats,
                                &workspace.summaries())
        << "\n";
  } else if (!options.quiet) {
    render_text_report(report, verifier, load_diag_end,
                       workspace.summaries(), load_failed, out);
  }
  if (options.stats && !options.json) print_stats(report, out);
  if (load_failed) return 2;
  return report.ok() && !verifier.diagnostics().has_errors() ? 0 : 1;
}

int run_tool(const CliOptions& options, std::istream& in, std::ostream& out,
             std::ostream& err) {
  if (options.version) {
    out << core::kToolchainVersion << "\n";
    return 0;
  }

  // Install the resource guards before any frontend code runs; the deadline
  // (--timeout-ms) is armed here and covers loading and verification.
  support::guard::ScopedLimits guard(guard_limits(options));

  Workspace workspace;
  workspace.set_lint_options(core::LintOptions{options.dfa_budget});
  workspace.set_check_options(
      core::CheckOptions{options.ltlf_engine, options.lint_claims});

  // Incremental verification: an on-disk behavior cache shared by the
  // verification path (verdicts), --monitor (compiled tables), and --smv
  // (emitted model bytes).
  std::optional<core::BehaviorCache> cache;
  if (!open_cache(options.cache_dir, "shelleyc", err, cache)) return 2;
  if (cache) workspace.set_cache(&*cache);
  if (options.cache_stats && !cache) {
    err << "shelleyc: --cache-stats has no effect without --cache\n";
  }

  // Prints the --cache-stats block on every exit path (the destructor
  // fires at scope end, after all other output of the run -- even when
  // the pipeline throws and the caller turns that into an exit status).
  struct CacheStatsPrinter {
    const core::BehaviorCache* cache = nullptr;
    bool enabled = false;
    std::ostream& sink;
    ~CacheStatsPrinter() {
      if (enabled && cache != nullptr) print_cache_stats(cache->stats(), sink);
    }
  } cache_stats_printer{cache ? &*cache : nullptr,
                        options.cache_stats && cache.has_value(),
                        options.json ? err : out};

  QueryEngine engine(workspace);
  load_inputs(workspace, options.files, err);
  return run_cli(options, engine, in, out, err);
}

}  // namespace shelley::engine
