#include "engine/workspace.hpp"

#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "shelley/cache.hpp"
#include "support/guard.hpp"
#include "upy/parser.hpp"

namespace shelley::engine {

Workspace::Workspace() : verifier_(std::make_unique<core::Verifier>()) {}

Workspace::~Workspace() = default;

void Workspace::set_lint_options(const core::LintOptions& options) {
  lint_options_ = options;
  verifier_->set_lint_options(options);
}

void Workspace::set_check_options(const core::CheckOptions& options) {
  check_options_ = options;
  verifier_->set_check_options(options);
}

void Workspace::set_cache(core::BehaviorCache* cache) { cache_ = cache; }

const core::FileSummary& Workspace::load_file(const std::string& path) {
  SourceFile source;
  source.path = path;
  std::ifstream file(path);
  if (file) {
    std::stringstream buffer;
    buffer << file.rdbuf();
    source.text = buffer.str();
    source.content_key = support::hash_bytes(*source.text);
  }
  const std::size_t diags_before =
      verifier_->diagnostics().diagnostics().size();
  summaries_.push_back(apply_file(source));
  sources_.push_back(std::move(source));
  load_diag_end_ = verifier_->diagnostics().diagnostics().size();
  file_diag_ranges_.emplace_back(diags_before, load_diag_end_);
  return summaries_.back();
}

const core::FileSummary& Workspace::load_source(const std::string& path,
                                                std::string text) {
  SourceFile source;
  source.path = path;
  source.content_key = support::hash_bytes(text);
  source.text = std::move(text);
  const std::size_t diags_before =
      verifier_->diagnostics().diagnostics().size();
  summaries_.push_back(apply_file(source));
  sources_.push_back(std::move(source));
  load_diag_end_ = verifier_->diagnostics().diagnostics().size();
  file_diag_ranges_.emplace_back(diags_before, load_diag_end_);
  return summaries_.back();
}

UpdateResult Workspace::update_source(const std::string& path,
                                      std::optional<std::string> text) {
  const std::map<std::string, support::Digest128> before = class_keys();

  SourceFile updated;
  updated.path = path;
  if (text) {
    updated.content_key = support::hash_bytes(*text);
    updated.text = std::move(text);
  } else {
    std::ifstream file(path);
    if (file) {
      std::stringstream buffer;
      buffer << file.rdbuf();
      updated.text = buffer.str();
      updated.content_key = support::hash_bytes(*updated.text);
    }
  }
  bool replaced = false;
  for (SourceFile& source : sources_) {
    if (source.path == path) {
      source = std::move(updated);
      replaced = true;
      break;
    }
  }
  if (!replaced) sources_.push_back(std::move(updated));

  rebuild();

  // Content-addressed keys give invalidation for free: a class's key folds
  // in its own canonical AST plus its whole subsystem closure, so exactly
  // the dependency closure of the edit changes keys -- diff the key maps
  // and the changed set falls out, no graph walk needed.
  const std::map<std::string, support::Digest128> after = class_keys();
  UpdateResult result;
  for (const auto& [name, key] : before) {
    const auto it = after.find(name);
    if (it == after.end() || !(it->second == key)) {
      result.changed.push_back(name);
      result.stale_keys.push_back(key);
    }
  }
  for (const auto& [name, key] : after) {
    if (before.find(name) == before.end()) result.changed.push_back(name);
  }
  return result;
}

bool Workspace::load_failed() const {
  for (const core::FileSummary& summary : summaries_) {
    if (!summary.loaded || summary.parse_errors > 0) return true;
  }
  return false;
}

void Workspace::rewind_to_loaded() {
  verifier_->diagnostics().truncate(load_diag_end_);
}

std::map<std::string, support::Digest128> Workspace::class_keys() const {
  std::map<std::string, support::Digest128> keys;
  for (const core::ClassSpec& spec : verifier_->classes()) {
    keys.emplace(spec.name, verifier_->cache_key(spec));
  }
  return keys;
}

std::vector<std::string> Workspace::dependents_closure(
    const std::string& name) const {
  // Reverse reachability over subsystem declarations.  Unresolved names
  // contribute no edges (a missing subsystem is folded into the key as a
  // marker, but it has no spec to traverse), and cycles are handled by the
  // visited set -- every member of an SCC reaches every other.
  std::map<std::string, std::vector<std::string>> rdeps;
  for (const core::ClassSpec& spec : verifier_->classes()) {
    for (const core::SubsystemDecl& sub : spec.subsystems) {
      rdeps[sub.class_name].push_back(spec.name);
    }
  }
  std::vector<std::string> closure;
  std::map<std::string, bool> visited;
  std::deque<std::string> queue{name};
  visited[name] = true;
  while (!queue.empty()) {
    std::string current = std::move(queue.front());
    queue.pop_front();
    const auto it = rdeps.find(current);
    if (it != rdeps.end()) {
      for (const std::string& dependent : it->second) {
        if (!visited[dependent]) {
          visited[dependent] = true;
          queue.push_back(dependent);
        }
      }
    }
    closure.push_back(std::move(current));
  }
  return closure;
}

core::FileSummary Workspace::apply_file(const SourceFile& file) {
  core::FileSummary summary;
  summary.path = file.path;
  if (!file.text) {
    summary.failure = "cannot open file";
    return summary;
  }
  DiagnosticEngine& sink = verifier_->diagnostics();
  const std::size_t errors_before = sink.error_count();
  try {
    const ParseResult& parsed = lookup_or_parse(file);
    for (const Diagnostic& diag : parsed.parse_diagnostics) {
      sink.report(diag.severity, diag.loc, diag.message);
    }
    // Spec extraction re-runs on every apply: it is deterministic given
    // the (memoized) AST, and the duplicate-class check depends on what
    // else this workspace has registered, so it cannot be memoized per
    // file.
    for (const upy::ClassDef& cls : parsed.module.classes) {
      verifier_->add_class(cls);
    }
    summary.parse_errors = sink.error_count() - errors_before;
    summary.loaded = true;
  } catch (const std::exception& error) {
    summary.parse_errors = sink.error_count() - errors_before;
    summary.failure = error.what();
  }
  return summary;
}

const Workspace::ParseResult& Workspace::lookup_or_parse(
    const SourceFile& file) {
  const auto it = parse_memo_.find(file.content_key);
  if (it != parse_memo_.end()) {
    ++parse_stats_.hits;
    return it->second;
  }
  ++parse_stats_.misses;
  // Parse into a local sink so the parse-phase diagnostics can be stored
  // alongside the module; the caller replays them into the live sink, in
  // the exact order add_source_recover would have produced them.
  DiagnosticEngine local;
  ParseResult result;
  try {
    result.module = upy::parse_module(*file.text, local);
  } catch (const support::guard::ResourceError& error) {
    // Resource limits abort the whole source (the parse state is gone) and
    // must not be memoized: raising a limit has to make the next rebuild
    // actually re-parse.  Flush what recovery collected plus the limit
    // error, and hand back an empty module.
    scratch_ = ParseResult{};
    scratch_.parse_diagnostics = local.diagnostics();
    scratch_.parse_diagnostics.push_back(
        Diagnostic{Severity::kError, error.loc(), error.message()});
    return scratch_;
  } catch (...) {
    // Internal failures surface as a FileSummary failure upstream; keep
    // the partial diagnostics visible, exactly like parsing straight into
    // the verifier's sink would have.
    for (const Diagnostic& diag : local.diagnostics()) {
      verifier_->diagnostics().report(diag.severity, diag.loc, diag.message);
    }
    throw;
  }
  result.parse_diagnostics = local.diagnostics();
  const auto [inserted, ok] =
      parse_memo_.emplace(file.content_key, std::move(result));
  return inserted->second;
}

void Workspace::rebuild() {
  verifier_ = std::make_unique<core::Verifier>();
  verifier_->set_lint_options(lint_options_);
  verifier_->set_check_options(check_options_);
  summaries_.clear();
  summaries_.reserve(sources_.size());
  file_diag_ranges_.clear();
  file_diag_ranges_.reserve(sources_.size());
  for (const SourceFile& source : sources_) {
    const std::size_t diags_before =
        verifier_->diagnostics().diagnostics().size();
    summaries_.push_back(apply_file(source));
    file_diag_ranges_.emplace_back(
        diags_before, verifier_->diagnostics().diagnostics().size());
  }
  load_diag_end_ = verifier_->diagnostics().diagnostics().size();

  std::set<support::Digest128> held;
  for (const SourceFile& source : sources_) {
    if (source.text) held.insert(source.content_key);
  }
  std::erase_if(parse_memo_,
                [&](const auto& entry) { return !held.contains(entry.first); });
}

}  // namespace shelley::engine
