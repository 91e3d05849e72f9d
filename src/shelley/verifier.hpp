// The end-to-end verification pipeline: parse MicroPython sources, extract
// class specifications, and run all three analysis steps (§3) plus the
// composite checks of §2.2.  This is the main entry point of the library.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "shelley/checker.hpp"
#include "shelley/lint.hpp"
#include "shelley/spec.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"
#include "support/symbol.hpp"

namespace shelley::core {

struct CachedVerdict;

/// Per-class verification outcome.
struct ClassReport {
  std::string class_name;
  bool is_composite = false;
  std::size_t invocation_errors = 0;
  std::size_t lint_findings = 0;  // warnings; do not affect ok()
  /// Resource-limit violations (state budget, timeout, recursion cap) that
  /// aborted this class's verification; surfaced as diagnostics and they
  /// fail ok() -- an unverified class is not a verified one.
  std::size_t resource_errors = 0;
  CheckResult check;  // subsystem + claim results (composites only)
  /// Automata statistics collected while verifying this class.  Only
  /// populated (`stats.collected == true`) when metrics are enabled or a
  /// stats-consuming lint is configured; never affects ok() or render().
  support::metrics::AutomataStats stats;

  [[nodiscard]] bool ok() const {
    return invocation_errors == 0 && resource_errors == 0 && check.ok();
  }
};

struct Report {
  std::vector<ClassReport> classes;

  [[nodiscard]] bool ok() const;
  /// Paper-format error blocks for every failing class, concatenated.
  [[nodiscard]] std::string render(const SymbolTable& table) const;
};

class Verifier {
 public:
  Verifier() = default;

  /// Parses `source` and registers every class found.  Throws ParseError on
  /// syntax errors; annotation/spec problems become diagnostics.
  void add_source(std::string_view source);

  /// Parses `source` with error recovery: every syntax error becomes a
  /// diagnostic (multiple per file, in source order) and classes that
  /// survive recovery are still registered, so one malformed method does
  /// not hide a whole file.  Resource limits (support::guard) are reported
  /// as diagnostics too, aborting only this source.  Returns the number of
  /// error diagnostics this call produced.
  std::size_t add_source_recover(std::string_view source);

  /// Registers a single already-parsed class.
  void add_class(const upy::ClassDef& cls);

  [[nodiscard]] const ClassSpec* find_class(std::string_view name) const;
  [[nodiscard]] const std::deque<ClassSpec>& classes() const {
    return specs_;
  }

  /// Verifies one class (by name).  Unknown names produce a diagnostic and
  /// an empty report entry.
  [[nodiscard]] ClassReport verify_class(std::string_view name);

  /// Verifies every registered @sys class, serially (jobs = 1).
  [[nodiscard]] Report verify_all();

  /// Verifies every registered @sys class on up to `jobs` worker threads.
  /// `jobs == 1` is exactly the serial path.
  [[nodiscard]] Report verify_all(std::size_t jobs);

  /// One class's verification into `sink`: verify_spec, or a caller's tier
  /// in front of it (the query engine's cached report).
  using ClassVerify =
      std::function<ClassReport(const ClassSpec&, DiagnosticEngine&)>;

  /// The deterministic parallel-merge protocol, the only one: every
  /// registered @sys class goes through `verify`, into the verifier's own
  /// sink when serial (`jobs == 1` or one class).  With more jobs the
  /// symbols every class needs are pre-interned in the serial order first,
  /// each class is verified into its own sink, and sinks and report entries
  /// are merged in registration order, so the output is byte-identical to
  /// the serial path.  Opens no span; callers name their own.
  [[nodiscard]] Report verify_all(std::size_t jobs, const ClassVerify& verify);

  /// The §3 pipeline for one class, uncached: extract behaviors, run every
  /// check, and report findings into `sink`.
  [[nodiscard]] ClassReport verify_spec(const ClassSpec& spec,
                                        DiagnosticEngine& sink);

  /// The content-addressed cache key of one registered class: toolchain
  /// version, output-affecting options, the canonical class AST, and the
  /// keys of its full subsystem closure (shelley/fingerprint.hpp).
  [[nodiscard]] support::Digest128 cache_key(const ClassSpec& spec) const;

  /// Replays a previously captured verdict into a ClassReport exactly as
  /// the live pipeline would have produced it: symbols are pre-warmed in
  /// serial intern order and the stored diagnostics are re-emitted into
  /// `sink`.  The caller is responsible for having looked `verdict` up
  /// under this class's *current* cache key (shelley/replay.hpp pairs this
  /// with capture_verdict; the engine's memo and disk tiers both replay
  /// through here).
  [[nodiscard]] ClassReport replay_verdict(const ClassSpec& spec,
                                           CachedVerdict verdict,
                                           DiagnosticEngine& sink);

  /// Interns every symbol verifying `spec` will touch, in the same order
  /// the serial verification path interns them.  verify_all pre-warms
  /// every class in registration order first, so worker-side interning
  /// only ever *finds* symbols and ids are identical to a serial run.
  void warm_symbols(const ClassSpec& spec);

  /// Lint thresholds applied to every subsequently verified class.
  void set_lint_options(const LintOptions& options) {
    lint_options_ = options;
  }
  [[nodiscard]] const LintOptions& lint_options() const {
    return lint_options_;
  }

  /// Claim-checking options (LTLf engine, claim lints) applied to every
  /// subsequently verified class.  Both fold into cache_key.
  void set_check_options(const CheckOptions& options) {
    check_options_ = options;
  }
  [[nodiscard]] const CheckOptions& check_options() const {
    return check_options_;
  }

  [[nodiscard]] SymbolTable& symbols() { return table_; }
  [[nodiscard]] const SymbolTable& symbols() const { return table_; }
  [[nodiscard]] DiagnosticEngine& diagnostics() { return diagnostics_; }
  [[nodiscard]] const DiagnosticEngine& diagnostics() const {
    return diagnostics_;
  }

 private:
  [[nodiscard]] ClassLookup lookup() const;

  SymbolTable table_;
  DiagnosticEngine diagnostics_;
  LintOptions lint_options_;
  CheckOptions check_options_;
  std::deque<ClassSpec> specs_;  // deque: stable addresses for ClassLookup
  // Name -> index into specs_; keeps find_class O(1) (it is called once per
  // analyzed invocation).
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace shelley::core
