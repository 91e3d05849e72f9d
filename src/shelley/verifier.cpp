// Class registration and the verify_class/verify_all drivers.  The §3
// pipeline itself lives in verify_spec.cpp and the cache/replay protocol in
// replay.cpp; this file owns the spec registry and the deterministic
// serial/parallel orchestration.
#include "shelley/verifier.hpp"

#include <exception>
#include <vector>

#include "support/guard.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "upy/parser.hpp"

namespace shelley::core {

bool Report::ok() const {
  for (const ClassReport& report : classes) {
    if (!report.ok()) return false;
  }
  return true;
}

std::string Report::render(const SymbolTable& table) const {
  std::string out;
  for (const ClassReport& report : classes) {
    const std::string block = report.check.render(table);
    if (block.empty()) continue;
    if (!out.empty()) out += '\n';
    out += block;
  }
  return out;
}

void Verifier::add_source(std::string_view source) {
  const upy::Module module = upy::parse_module(source);
  for (const upy::ClassDef& cls : module.classes) {
    add_class(cls);
  }
}

std::size_t Verifier::add_source_recover(std::string_view source) {
  const std::size_t errors_before = diagnostics_.error_count();
  try {
    const upy::Module module = upy::parse_module(source, diagnostics_);
    for (const upy::ClassDef& cls : module.classes) {
      add_class(cls);
    }
  } catch (const support::guard::ResourceError& error) {
    // Resource limits abort the whole source (the parse state is gone),
    // but they still land as a diagnostic rather than an exception.
    diagnostics_.error(error.loc(), error.message());
  }
  return diagnostics_.error_count() - errors_before;
}

void Verifier::add_class(const upy::ClassDef& cls) {
  if (find_class(cls.name) != nullptr) {
    diagnostics_.error(cls.loc,
                       "class '" + cls.name + "' is defined more than once");
    return;
  }
  specs_.push_back(extract_class_spec(cls, diagnostics_));
  index_.emplace(specs_.back().name, specs_.size() - 1);
}

const ClassSpec* Verifier::find_class(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  return &specs_[it->second];
}

ClassLookup Verifier::lookup() const {
  return [this](const std::string& name) { return find_class(name); };
}

ClassReport Verifier::verify_class(std::string_view name) {
  const ClassSpec* spec = find_class(name);
  if (spec == nullptr) {
    diagnostics_.error({},
                       "cannot verify unknown class '" + std::string(name) +
                           "'");
    ClassReport report;
    report.class_name = std::string(name);
    report.invocation_errors = 1;
    return report;
  }
  return verify_spec(*spec, diagnostics_);
}

Report Verifier::verify_all() { return verify_all(1); }

Report Verifier::verify_all(std::size_t jobs) {
  // One root span per top-level call.  Every per-class pipeline span lands
  // under it: parallel_for submits through ThreadPool::submit, which
  // carries this thread's trace context (now pointing at this span) onto
  // the workers -- the fix for the orphan worker spans that used to show
  // up as parentless roots in timelines.
  support::trace::Span span("shelley.verify_all");
  Report report =
      verify_all(jobs, [this](const ClassSpec& spec, DiagnosticEngine& sink) {
        return verify_spec(spec, sink);
      });
  const std::size_t classes = report.classes.size();
  if (jobs > 1 && classes > 1) {
    span.arg("jobs", static_cast<std::uint64_t>(jobs));
  }
  span.arg("classes", static_cast<std::uint64_t>(classes));
  return report;
}

Report Verifier::verify_all(std::size_t jobs, const ClassVerify& verify) {
  std::vector<const ClassSpec*> work;
  for (const ClassSpec& spec : specs_) {
    if (spec.is_system) work.push_back(&spec);
  }
  Report report;
  if (jobs <= 1 || work.size() <= 1) {
    for (const ClassSpec* spec : work) {
      report.classes.push_back(verify(*spec, diagnostics_));
    }
    return report;
  }

  // Symbol ids leak into the output: alphabets are sorted by id and witness
  // searches break ties in alphabet order.  Pre-intern every symbol in the
  // order the serial pass would create it, so worker-side interning (under
  // the table's lock) only ever *finds* symbols and ids are identical to a
  // serial run.
  for (const ClassSpec* spec : work) warm_symbols(*spec);

  std::vector<ClassReport> reports(work.size());
  std::vector<DiagnosticEngine> sinks(work.size());
  std::vector<std::exception_ptr> errors(work.size());
  support::parallel_for(work.size(), jobs, [&](std::size_t i) {
    try {
      reports[i] = verify(*work[i], sinks[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });

  // Merge in registration order so diagnostics and the report are stable
  // regardless of worker scheduling.
  for (std::size_t i = 0; i < work.size(); ++i) {
    diagnostics_.append(sinks[i]);
    if (errors[i]) std::rethrow_exception(errors[i]);
    report.classes.push_back(std::move(reports[i]));
  }
  return report;
}

}  // namespace shelley::core
