#include "shelley/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/binary.hpp"
#include "support/metrics.hpp"

namespace shelley::core {

namespace {

constexpr char kMagic[4] = {'S', 'H', 'L', 'C'};

// Corrupted length fields must not allocate unbounded memory before the
// digest check rejects them.
constexpr std::uint64_t kMaxReasonableCount = 1u << 24;

const char* kind_suffix(CacheKind kind) {
  switch (kind) {
    case CacheKind::kVerdict:
      return "v";
    case CacheKind::kArtifact:
      return "art";
    case CacheKind::kTable:
      return "tbl";
  }
  return "unknown";
}

void write_digest(support::BinaryWriter& writer,
                  const support::Digest128& digest) {
  writer.u64(digest.lo);
  writer.u64(digest.hi);
}

support::Digest128 read_digest(support::BinaryReader& reader) {
  support::Digest128 digest;
  digest.lo = reader.u64();
  digest.hi = reader.u64();
  return digest;
}

std::vector<std::string> decode_string_list(support::BinaryReader& reader) {
  const std::uint64_t count = reader.u64();
  if (count > kMaxReasonableCount) {
    throw support::BinaryFormatError("cache list count implausible");
  }
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(reader.str());
  return out;
}

void encode_string_list(support::BinaryWriter& writer,
                        const std::vector<std::string>& list) {
  writer.u64(list.size());
  for (const std::string& item : list) writer.str(item);
}

}  // namespace

BehaviorCache::BehaviorCache(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code error;
  std::filesystem::create_directories(directory_, error);
  if (error || !std::filesystem::is_directory(directory_)) {
    throw std::runtime_error("cannot create cache directory '" + directory_ +
                             "'");
  }
}

std::string BehaviorCache::entry_path(const support::Digest128& key,
                                      CacheKind kind) const {
  return directory_ + "/" + support::to_hex(key) + "." + kind_suffix(kind) +
         ".shc";
}

std::string BehaviorCache::encode_file(const support::Digest128& key,
                                       CacheKind kind,
                                       std::string_view payload) {
  support::BinaryWriter writer;
  writer.raw(std::string_view(kMagic, sizeof(kMagic)));
  writer.u32(kCacheFormatVersion);
  writer.u8(static_cast<std::uint8_t>(kind));
  write_digest(writer, key);
  writer.str(payload);
  write_digest(writer, support::hash_bytes(payload));
  return writer.take();
}

std::optional<std::string> BehaviorCache::decode_file(
    std::string_view bytes, const support::Digest128& expected_key,
    CacheKind expected_kind) {
  try {
    support::BinaryReader reader(bytes);
    const std::string_view magic = reader.raw(sizeof(kMagic));
    if (magic != std::string_view(kMagic, sizeof(kMagic))) {
      return std::nullopt;
    }
    if (reader.u32() != kCacheFormatVersion) return std::nullopt;
    if (reader.u8() != static_cast<std::uint8_t>(expected_kind)) {
      return std::nullopt;
    }
    if (read_digest(reader) != expected_key) return std::nullopt;
    std::string payload = reader.str();
    if (read_digest(reader) != support::hash_bytes(payload)) {
      return std::nullopt;
    }
    reader.expect_end();
    return payload;
  } catch (const support::BinaryFormatError&) {
    return std::nullopt;
  }
}

std::string BehaviorCache::encode_verdict(const CachedVerdict& verdict) {
  support::BinaryWriter writer;
  writer.str(verdict.class_name);
  writer.u8(verdict.is_composite ? 1 : 0);
  writer.u64(verdict.invocation_errors);
  writer.u64(verdict.lint_findings);
  writer.u64(verdict.subsystem_errors.size());
  for (const CachedSubsystemError& error : verdict.subsystem_errors) {
    writer.str(error.field);
    writer.str(error.class_name);
    encode_string_list(writer, error.counterexample);
    writer.str(error.detail);
  }
  writer.u64(verdict.claim_errors.size());
  for (const CachedClaimError& error : verdict.claim_errors) {
    writer.str(error.formula);
    encode_string_list(writer, error.counterexample);
  }
  writer.u64(verdict.diagnostics.size());
  for (const CachedDiagnostic& diag : verdict.diagnostics) {
    writer.u8(diag.severity);
    writer.u32(diag.line);
    writer.u32(diag.column);
    writer.str(diag.message);
  }
  return writer.take();
}

std::optional<CachedVerdict> BehaviorCache::decode_verdict(
    std::string_view payload) {
  try {
    support::BinaryReader reader(payload);
    CachedVerdict verdict;
    verdict.class_name = reader.str();
    const std::uint8_t composite = reader.u8();
    if (composite > 1) return std::nullopt;
    verdict.is_composite = composite != 0;
    verdict.invocation_errors = reader.u64();
    verdict.lint_findings = reader.u64();

    const std::uint64_t subsystem_count = reader.u64();
    if (subsystem_count > kMaxReasonableCount) return std::nullopt;
    for (std::uint64_t i = 0; i < subsystem_count; ++i) {
      CachedSubsystemError error;
      error.field = reader.str();
      error.class_name = reader.str();
      error.counterexample = decode_string_list(reader);
      error.detail = reader.str();
      verdict.subsystem_errors.push_back(std::move(error));
    }

    const std::uint64_t claim_count = reader.u64();
    if (claim_count > kMaxReasonableCount) return std::nullopt;
    for (std::uint64_t i = 0; i < claim_count; ++i) {
      CachedClaimError error;
      error.formula = reader.str();
      error.counterexample = decode_string_list(reader);
      verdict.claim_errors.push_back(std::move(error));
    }

    const std::uint64_t diag_count = reader.u64();
    if (diag_count > kMaxReasonableCount) return std::nullopt;
    for (std::uint64_t i = 0; i < diag_count; ++i) {
      CachedDiagnostic diag;
      diag.severity = reader.u8();
      if (diag.severity > static_cast<std::uint8_t>(Severity::kError)) {
        return std::nullopt;
      }
      diag.line = reader.u32();
      diag.column = reader.u32();
      diag.message = reader.str();
      verdict.diagnostics.push_back(std::move(diag));
    }
    reader.expect_end();
    return verdict;
  } catch (const support::BinaryFormatError&) {
    return std::nullopt;
  }
}

std::optional<std::string> BehaviorCache::get(CacheKind kind,
                                              const support::Digest128& key) {
  const std::string path = entry_path(key, kind);
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    support::metrics::counter("cache.miss").add();
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::optional<std::string> payload = decode_file(buffer.str(), key, kind);
  if (!payload) {
    // Present but unusable: corruption, truncation, or version skew.  Treat
    // as a miss so verification recomputes (and overwrites) the entry.
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    support::metrics::counter("cache.invalidated").add();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  support::metrics::counter("cache.hit").add();
  return payload;
}

bool BehaviorCache::put(CacheKind kind, const support::Digest128& key,
                        std::string_view payload) {
  const std::string path = entry_path(key, kind);
  const std::string temp =
      path + ".tmp" +
      std::to_string(temp_serial_.fetch_add(1, std::memory_order_relaxed));
  const std::string image = encode_file(key, kind, payload);
  {
    std::ofstream file(temp, std::ios::binary | std::ios::trunc);
    file.write(image.data(), static_cast<std::streamsize>(image.size()));
    if (!file) {
      store_failures_.fetch_add(1, std::memory_order_relaxed);
      std::error_code ignored;
      std::filesystem::remove(temp, ignored);
      return false;
    }
  }
  std::error_code error;
  std::filesystem::rename(temp, path, error);
  if (error) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  support::metrics::counter("cache.store").add();
  return true;
}

void BehaviorCache::reject_hit() {
  hits_.fetch_sub(1, std::memory_order_relaxed);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  support::metrics::counter("cache.invalidated").add();
}

CacheStats BehaviorCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.store_failures = store_failures_.load(std::memory_order_relaxed);
  return stats;
}

Word intern_word(const std::vector<std::string>& names, SymbolTable& table) {
  Word word;
  word.reserve(names.size());
  for (const std::string& name : names) word.push_back(table.intern(name));
  return word;
}

}  // namespace shelley::core
