// The persistent semantic store behind the query engine: sources, their
// memoized parses, the registered class specifications, and the class-level
// dependency structure needed for precise invalidation.
//
// A workspace owns one Verifier at a time.  Loading appends files to the
// live verifier exactly like shelleyc's batch loader; updating a source
// rebuilds the verifier from the (updated) source list -- parsing is
// memoized by content, so an update re-parses only the file that changed,
// and the rebuild resets the symbol table so every downstream answer is
// byte-identical to a cold run over the new sources.  The parse memo holds
// only texts some registered file still has: each rebuild drops the rest,
// so a long editing session does not keep every revision's AST.  update_source
// reports exactly which classes' content-addressed keys changed (the
// dependency closure of the edit: the class itself plus every composite
// whose key folds it in, cycles included), so the query engine can drop
// precisely those memo entries and nothing else.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "shelley/report_json.hpp"
#include "shelley/verifier.hpp"
#include "support/hash.hpp"

namespace shelley::core {
class BehaviorCache;
}

namespace shelley::engine {

struct ParseStats {
  std::uint64_t hits = 0;    ///< parses answered from the content memo
  std::uint64_t misses = 0;  ///< real upy::parse_module runs
};

/// Outcome of update_source: the classes whose cache keys changed (added,
/// removed, or content/closure edited) and the now-stale keys the memo
/// tier should drop.
struct UpdateResult {
  std::vector<std::string> changed;
  std::vector<support::Digest128> stale_keys;
};

class Workspace {
 public:
  Workspace();
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Lint thresholds for every subsequently (re)built verifier.
  void set_lint_options(const core::LintOptions& options);

  /// Claim-checking options (LTLf engine, claim lints) for every
  /// subsequently (re)built verifier.
  void set_check_options(const core::CheckOptions& options);

  /// Attaches the on-disk behavior cache tier the query engine consults
  /// below its memo (not owned; nullptr detaches).  Survives rebuilds.
  void set_cache(core::BehaviorCache* cache);
  [[nodiscard]] core::BehaviorCache* cache() const { return cache_; }

  /// Reads `path` from disk and registers it, exactly like shelleyc's
  /// batch loader: recovery collects every parse error as a diagnostic, an
  /// unreadable file records `failure = "cannot open file"`, a resource or
  /// internal failure records its message -- in every case the remaining
  /// files keep working.  Returns this file's load outcome (also appended
  /// to summaries()).
  const core::FileSummary& load_file(const std::string& path);

  /// Registers `text` under `path` without touching the filesystem.
  const core::FileSummary& load_source(const std::string& path,
                                       std::string text);

  /// Replaces (or adds) the source registered under `path` and rebuilds
  /// the workspace over the updated source list.  With nullopt `text` the
  /// file is re-read from disk.  Unchanged files replay their memoized
  /// parses; the returned UpdateResult names exactly the dependency
  /// closure of the edit.
  UpdateResult update_source(const std::string& path,
                             std::optional<std::string> text);

  [[nodiscard]] core::Verifier& verifier() { return *verifier_; }
  [[nodiscard]] const core::Verifier& verifier() const { return *verifier_; }

  /// Per-file load outcomes, in registration order (rebuilt on update).
  [[nodiscard]] const std::vector<core::FileSummary>& summaries() const {
    return summaries_;
  }

  /// For each file of summaries(), the half-open range of indices into
  /// verifier().diagnostics() its load produced -- what lets the daemon
  /// re-render the loader's path-prefixed stderr byte-for-byte.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  file_diag_ranges() const {
    return file_diag_ranges_;
  }

  /// True when any input failed to load or parse cleanly -- the condition
  /// under which shelleyc exits 2 and prints the inputs: summary.
  [[nodiscard]] bool load_failed() const;

  /// Index into verifier().diagnostics() one past the last load-time
  /// diagnostic: everything at or beyond this index was produced by
  /// verification queries.
  [[nodiscard]] std::size_t load_diag_end() const { return load_diag_end_; }

  /// Notes that verification diagnostics emitted beyond load_diag_end()
  /// have been consumed: rewinds the sink to the post-load state so the
  /// next query renders exactly like a cold run (the daemon calls this
  /// between requests).
  void rewind_to_loaded();

  /// The content-addressed key of every registered class, by name.
  [[nodiscard]] std::map<std::string, support::Digest128> class_keys() const;

  /// The classes whose key folds in `name` (transitively): `name` itself
  /// plus every registered composite that reaches it through subsystem
  /// declarations, cycles included.  This is the set an edit to `name`
  /// invalidates.
  [[nodiscard]] std::vector<std::string> dependents_closure(
      const std::string& name) const;

  [[nodiscard]] ParseStats parse_stats() const { return parse_stats_; }

 private:
  struct SourceFile {
    std::string path;
    // nullopt records a file that could not be opened at load time, so a
    // rebuild reproduces its "cannot open file" summary without re-reading
    // the filesystem.
    std::optional<std::string> text;
    support::Digest128 content_key;
  };
  struct ParseResult {
    upy::Module module;
    std::vector<Diagnostic> parse_diagnostics;
  };

  /// Parses (or replays) `file` into the current verifier and returns the
  /// load outcome; mirrors Verifier::add_source_recover byte for byte.
  core::FileSummary apply_file(const SourceFile& file);

  /// The memoized parse of `file`; runs upy::parse_module on a miss.  On a
  /// guard::ResourceError the partial diagnostics plus the limit error are
  /// flushed into the verifier, nothing is memoized, and an empty scratch
  /// result is returned (no classes).  Any other exception flushes the
  /// partial diagnostics and propagates (the caller records a failure).
  const ParseResult& lookup_or_parse(const SourceFile& file);

  /// Tears down and reloads the verifier over sources_ (parse memo makes
  /// unchanged files cheap), refreshing summaries_ and load_diag_end_, then
  /// drops every parse no registered file holds any more.
  void rebuild();

  std::unique_ptr<core::Verifier> verifier_;
  core::LintOptions lint_options_;
  core::CheckOptions check_options_;
  core::BehaviorCache* cache_ = nullptr;
  std::vector<SourceFile> sources_;
  std::vector<core::FileSummary> summaries_;
  std::vector<std::pair<std::size_t, std::size_t>> file_diag_ranges_;
  std::size_t load_diag_end_ = 0;
  std::map<support::Digest128, ParseResult> parse_memo_;
  ParseResult scratch_;  // non-memoizable outcomes (resource-limited parse)
  ParseStats parse_stats_;
};

}  // namespace shelley::engine
