// verify_corpus and composite_farm: one operation cold-verifies one
// generated program in-process -- a fresh Workspace::load_source, then
// QueryEngine::verify_all with one job, then Report::render -- the path
// `shelleyc FILE` drives, without the process start.
#include <deque>
#include <optional>

#include "corpus.hpp"
#include "engine/query.hpp"
#include "engine/workspace.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace shelley;

std::string joined(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "]";
}

/// Compares one verification with the program's known answer; empty when
/// every verdict, failing subsystem and failing claim matches.
std::string check_report(const Program& program, const core::Report& report,
                         const engine::Workspace& workspace,
                         const std::string& rendered) {
  if (workspace.load_failed()) return program.path + ": load failed";
  if (workspace.verifier().diagnostics().error_count() != 0) {
    return program.path + ": " +
           workspace.verifier().diagnostics().render().substr(0, 200);
  }
  if (report.classes.size() != program.classes) {
    return program.path + ": report lists " +
           std::to_string(report.classes.size()) + " classes, expected " +
           std::to_string(program.classes);
  }
  Expected actual;
  bool any_error = false;
  for (const core::ClassReport& cls : report.classes) {
    if (!cls.ok()) actual.add_failure(cls.class_name);
    for (const core::SubsystemError& error : cls.check.subsystem_errors) {
      actual.add_subsystem(cls.class_name, error.field, error.class_name);
      any_error = true;
    }
    for (const core::ClaimError& error : cls.check.claim_errors) {
      actual.add_claim(cls.class_name, error.formula);
      any_error = true;
    }
  }
  actual.normalize();
  if (actual.findings != program.expected.findings) {
    return program.path + ": found " + joined(actual.findings) +
           ", expected " + joined(program.expected.findings);
  }
  if (rendered.empty() == any_error) {
    return program.path + ": rendered report does not match the verdicts";
  }
  return "";
}

/// One cold verification.  Returns its latency; `why` receives the
/// mismatch with the known answer, if any.  Traced, the engine calls get
/// spans and the replay runs after the timed region, under the same
/// operation span.
double cold_verify(const Program& program, Tracer* tracer,
                   ReplayCounts* counts, EngineCounts* engine_counts,
                   std::string& why) {
  std::string text = program.text;
  engine::Workspace workspace;
  engine::QueryEngine engine(workspace);
  const Probe op(tracer, "op");
  const Clock::time_point start = Clock::now();
  {
    const Probe probe(tracer, "engine.load");
    (void)workspace.load_source(program.path, std::move(text));
  }
  std::optional<core::Report> report;
  {
    const Probe probe(tracer, "engine.query");
    report.emplace(engine.verify_all(1));
  }
  std::string rendered;
  {
    const Probe probe(tracer, "engine.render");
    rendered = report->render(workspace.verifier().symbols());
  }
  const double ms = ms_between(start, Clock::now());
  why = check_report(program, *report, workspace, rendered);
  if (tracer != nullptr) {
    // A fresh engine: its counters are this operation's alone.
    engine_counts->add({}, engine.memo().stats(), {},
                       workspace.parse_stats());
    upy::Module module;
    const std::deque<core::ClassSpec> specs =
        replay_front(*tracer, *counts, program.text, module);
    replay_keys(*tracer, workspace.verifier());
    std::vector<const core::ClassSpec*> classes;
    for (const core::ClassSpec& spec : specs) classes.push_back(&spec);
    replay_checks(*tracer, *counts, classes,
                  [&specs](const std::string& name) -> const core::ClassSpec* {
                    for (const core::ClassSpec& spec : specs) {
                      if (spec.name == name) return &spec;
                    }
                    return nullptr;
                  });
  }
  return ms;
}

template <typename Stream>
Result run_cold(const Args& args, double nominal_per_second,
                std::size_t warmups) {
  Result result;
  // Set-up: the warm-up programs, verified and discarded.  Each is made
  // just before it runs and only the verification is timed.  A warm-up
  // set is one full pass of the stream, so every seed does the same work.
  const auto setup = [&] {
    Stream warmup(args.seed ^ 0x9e3779b97f4a7c15ull);
    double seconds = 0;
    for (std::size_t i = 0; i < warmups; ++i) {
      const Program program = warmup.next();
      std::string why;
      seconds += cold_verify(program, nullptr, nullptr, nullptr, why) / 1000;
      if (!why.empty()) result.record("warm-up: " + why);
    }
    return seconds;
  };
  std::vector<double> setups = {setup()};

  const std::size_t ops = op_count(args.seconds, nominal_per_second, 200);
  Stream stream(args.seed);
  if (!args.trace) {
    std::vector<double> latencies;
    latencies.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      if (setup_due(i, ops, setups.size())) setups.push_back(setup());
      const Program program = stream.next();
      std::string why;
      latencies.push_back(cold_verify(program, nullptr, nullptr, nullptr, why));
      result.record(why);
    }
    add_end_to_end(result, std::move(latencies), static_cast<double>(ops),
                   std::move(setups));
    return result;
  }

  // Traced: every program runs untraced, then traced, so the overhead
  // compares the same inputs.
  const auto traced_ops = static_cast<std::size_t>(
      static_cast<double>(ops) * kTracedShare);
  std::vector<double> untraced;
  std::vector<double> traced;
  Tracer tracer;
  ReplayCounts counts;
  EngineCounts engine_counts;
  for (std::size_t i = 0; i < traced_ops; ++i) {
    const Program program = stream.next();
    std::string why;
    untraced.push_back(cold_verify(program, nullptr, nullptr, nullptr, why));
    result.record(why);
    tracer.set_op(i);
    traced.push_back(
        cold_verify(program, &tracer, &counts, &engine_counts, why));
    result.record(why);
  }
  LayerValues values;
  add_span_layers(values, tracer, traced_ops, counts, engine_counts);
  add_layer_metrics(result, values, std::move(untraced), std::move(traced));
  if (!tracer.write(trace_path(args), context_json(args))) {
    result.failures.push_back("cannot write " + trace_path(args));
  }
  return result;
}

}  // namespace

Result run_verify_corpus(const Args& args) {
  return run_cold<CorpusStream>(args, 200, 48);
}

Result run_composite_farm(const Args& args) {
  return run_cold<FarmStream>(args, 175, 34);
}

}  // namespace perfbench
