// The demand-driven query layer: every pipeline product -- a class's
// verification report, its compiled monitoring table, its NuSMV model -- is
// an individually memoized query over the Workspace, keyed by the class's
// content-addressed fingerprint.
//
// Every query runs the one tiering rule (tiered() in query.cpp): the
// in-memory memo tier, then the on-disk BehaviorCache (when one is
// attached to the workspace), then the real pipeline; a lower-tier answer
// is promoted into the memo.  Both tiers are byte stores holding the same
// encodings, and every answer is decoded through the one proven codec
// (Verifier::replay_verdict / CompiledDfa::from_bytes), so a warm answer is
// byte-identical to a cold run.  After Workspace::update_source, the
// caller drops exactly the stale keys (MemoTier::invalidate); everything
// outside the edit's dependency closure keeps its entries and keeps
// hitting.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/memo.hpp"
#include "engine/workspace.hpp"
#include "fsm/table.hpp"

namespace shelley::engine {

/// Memo-tier counters per query kind; the invalidation tests assert closure
/// precision through these (an update must turn exactly the closure's next
/// lookups into misses).  A lookup the memo answers is a hit; one that
/// falls through to the disk tier or the pipeline is a miss.
struct QueryStats {
  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Verdicts (report), artifacts (smv_model), tables (compiled_table).
  std::array<Counts, 3> kinds;

  [[nodiscard]] Counts& operator[](core::CacheKind kind) {
    return kinds[slot(kind)];
  }
  [[nodiscard]] const Counts& operator[](core::CacheKind kind) const {
    return kinds[slot(kind)];
  }

 private:
  static std::size_t slot(core::CacheKind kind) {
    return kind == core::CacheKind::kVerdict    ? 0
           : kind == core::CacheKind::kArtifact ? 1
                                                : 2;
  }
};

/// A built (or replayed) NuSMV model plus the claims that had to be
/// skipped because their formulas do not parse.  Models with skipped
/// claims are never memoized in any tier, so the caller's skip notice
/// reprints on every run -- exactly like the batch pipeline.
struct SmvArtifact {
  std::string text;
  std::vector<std::string> skipped_claims;
};

class QueryEngine {
 public:
  /// `shared` optionally points the engine at a caller-owned MemoTier
  /// instead of a private one -- the socket server hands every session the
  /// same tier, which is sound because keys are content-addressed class
  /// fingerprints (symbol-table independent) and MemoTier is internally
  /// synchronized.  With `shared == nullptr` the engine owns its tier, as
  /// the stdio daemon and the batch client always did.
  explicit QueryEngine(Workspace& workspace, MemoTier* shared = nullptr)
      : workspace_(workspace),
        memo_(shared != nullptr ? *shared : owned_memo_) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The verification report of one registered class, with its
  /// diagnostics appended to `sink`: a tier hit replays the stored
  /// verdict, a miss runs Verifier::verify_spec and stores the captured
  /// verdict (unless a resource limit aborted the class -- an aborted run
  /// is not a result).
  [[nodiscard]] core::ClassReport report(const core::ClassSpec& spec,
                                         DiagnosticEngine& sink);

  /// report() by name, diagnostics into the workspace sink; unknown names
  /// produce a diagnostic and an error entry, exactly like
  /// Verifier::verify_class.
  [[nodiscard]] core::ClassReport verify_class(std::string_view name);

  /// Verifies every registered @sys class through report(), on up to
  /// `jobs` workers (1 = serial), by Verifier::verify_all's deterministic
  /// merge.
  [[nodiscard]] core::Report verify_all(std::size_t jobs);

  /// The emitted NuSMV model of one class (what --smv prints).
  [[nodiscard]] SmvArtifact smv_model(const core::ClassSpec& spec);

  /// The compiled monitoring table of one class (fsm/table.hpp) -- what
  /// every monitor walks (shelleyc --monitor, shelley-monitor, the daemon's
  /// monitor command).  Cold, it compiles the minimal usage DFA.
  [[nodiscard]] fsm::CompiledDfa compiled_table(const core::ClassSpec& spec);

  /// Drops every memo entry under `key` (all query kinds).  Returns how
  /// many entries were dropped.
  std::size_t invalidate(const support::Digest128& key) {
    return memo_.invalidate(key);
  }

  /// Applies a Workspace::update_source result: every stale key is
  /// dropped from the memo.  Returns the total entries dropped.
  std::size_t apply_update(const UpdateResult& update);

  [[nodiscard]] Workspace& workspace() { return workspace_; }
  [[nodiscard]] MemoTier& memo() { return memo_; }
  [[nodiscard]] QueryStats stats() const;

 private:
  template <typename T, typename Decode, typename Build>
  T tiered(core::CacheKind kind, const core::ClassSpec& spec,
           Decode&& decode, Build&& build);
  void count(core::CacheKind kind, bool hit);

  Workspace& workspace_;
  MemoTier owned_memo_;  ///< backing store when no shared tier was given
  MemoTier& memo_;
  mutable std::mutex stats_mutex_;
  QueryStats stats_;
};

}  // namespace shelley::engine
