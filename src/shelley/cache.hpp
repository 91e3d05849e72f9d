// The content-addressed, on-disk behavior cache behind incremental
// verification (shelleyc --cache DIR).
//
// One file per (key, kind): `<32-hex-digest>.<kind>.shc` inside the cache
// directory.  Every file is
//
//   "SHLC" | u32 format version | u8 kind | 16-byte key |
//   u64 payload size | payload | 16-byte FNV-128 digest of the payload
//
// written atomically (temp file + rename), so readers never observe a
// partial entry.  Loads verify magic, version, kind, embedded key, and the
// payload digest; ANY mismatch -- truncation, bit flips, version skew, a
// renamed file -- is counted as an invalidation and degrades to a miss,
// never a crash and never a stale hit.
//
// The cache is a byte store: get(kind, key) / put(kind, key, bytes), the
// same interface as the query engine's in-memory MemoTier above it.  The
// payload codecs live with their types, and the one tiering path
// (engine/query.cpp) decodes:
//   * verdict  -- encode_verdict/decode_verdict below: a class's full
//                 verification outcome (report counters, subsystem/claim
//                 errors with counterexamples as symbol NAMES, and the
//                 diagnostics verification emitted), enough to replay
//                 verify_spec byte-for-byte;
//   * artifact -- opaque output bytes (e.g. the emitted SMV model), keyed
//                 by the same dependency-closure class key;
//   * table    -- a compiled monitoring table (fsm/table.hpp to_bytes /
//                 from_bytes), what every monitor walks.
//
// Verdicts for classes that hit a resource limit (timeout, state budget)
// are never stored: an aborted run is not a result.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/symbol.hpp"

namespace shelley::core {

/// Bumped whenever the entry encoding changes; older files become
/// invalidations (counted, then treated as misses).
inline constexpr std::uint32_t kCacheFormatVersion = 1;

/// A subsystem-usage failure, symbols spelled out as names.
struct CachedSubsystemError {
  std::string field;
  std::string class_name;
  std::vector<std::string> counterexample;
  std::string detail;
};

struct CachedClaimError {
  std::string formula;
  std::vector<std::string> counterexample;
};

struct CachedDiagnostic {
  std::uint8_t severity = 0;  // Severity enum value
  std::uint32_t line = 0;
  std::uint32_t column = 0;
  std::string message;
};

/// Everything needed to replay one class's verification.
struct CachedVerdict {
  std::string class_name;
  bool is_composite = false;
  std::uint64_t invocation_errors = 0;
  std::uint64_t lint_findings = 0;
  std::vector<CachedSubsystemError> subsystem_errors;
  std::vector<CachedClaimError> claim_errors;
  std::vector<CachedDiagnostic> diagnostics;
};

/// What an entry holds.  The values are the kind byte of the on-disk
/// framing (2 was a behavior-DFA kind, since retired).
enum class CacheKind : std::uint8_t {
  kVerdict = 1,
  kArtifact = 3,
  kTable = 4,
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< entry absent
  std::uint64_t invalidations = 0;   ///< entry present but rejected
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;  ///< I/O errors while writing
};

class BehaviorCache {
 public:
  /// Opens (and creates, if needed) the cache directory.  Throws
  /// std::runtime_error when the directory cannot be created.
  explicit BehaviorCache(std::string directory);

  [[nodiscard]] const std::string& directory() const { return directory_; }

  /// The payload stored under (kind, key) when its framing checks out; a
  /// hit.  nullopt is a miss (no entry) or an invalidation (a rejected
  /// entry).
  [[nodiscard]] std::optional<std::string> get(CacheKind kind,
                                               const support::Digest128& key);
  /// Stores `bytes` under (kind, key); false (counted) on an I/O error.
  bool put(CacheKind kind, const support::Digest128& key,
           std::string_view bytes);
  /// The caller's decoder rejected what the last get() returned (the
  /// framing checks out but the payload does not decode): that hit counts
  /// as an invalidation instead.
  void reject_hit();

  /// A consistent snapshot of the counters (safe while workers run).
  [[nodiscard]] CacheStats stats() const;

  /// The file path an entry would use (exposed for tests).
  [[nodiscard]] std::string entry_path(const support::Digest128& key,
                                       CacheKind kind) const;

  // -- Stateless encode/decode, exposed for tests and the fuzz harness. ----

  /// Wraps `payload` in the framing described above.
  [[nodiscard]] static std::string encode_file(const support::Digest128& key,
                                               CacheKind kind,
                                               std::string_view payload);

  /// Unwraps a file image; nullopt on any framing violation or when the
  /// embedded key/kind disagree with the expected ones.
  [[nodiscard]] static std::optional<std::string> decode_file(
      std::string_view bytes, const support::Digest128& expected_key,
      CacheKind expected_kind);

  [[nodiscard]] static std::string encode_verdict(
      const CachedVerdict& verdict);

  /// Decodes a verdict payload; nullopt on malformed input.  Total: never
  /// throws, never crashes -- this is the surface the fuzzer drives.
  [[nodiscard]] static std::optional<CachedVerdict> decode_verdict(
      std::string_view payload);

 private:
  std::string directory_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> store_failures_{0};
  std::atomic<std::uint64_t> temp_serial_{0};
};

/// Converts a replayed verdict into report fields (verifier.cpp) -- the
/// counterexample names are interned into `table`, which by construction
/// only *finds* symbols because the verifier warms the table first.
[[nodiscard]] Word intern_word(const std::vector<std::string>& names,
                               SymbolTable& table);

}  // namespace shelley::core
