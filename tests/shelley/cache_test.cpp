// The on-disk behavior cache (shelley/cache.hpp): round trips, counters,
// atomicity, and -- most importantly -- the adversarial surface: truncated,
// bit-flipped, version-skewed, and renamed entries must degrade to misses,
// never crash and never replay stale data.
#include "shelley/cache.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "fsm/dfa.hpp"
#include "fsm/table.hpp"
#include "shelley/fingerprint.hpp"
#include "shelley/verifier.hpp"
#include "support/hash.hpp"
#include "testing.hpp"
#include "upy/ast.hpp"

namespace shelley::core {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty cache directory per test.
std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shelley_cache" / name;
  fs::remove_all(dir);
  return dir.string();
}

CachedVerdict sample_verdict() {
  CachedVerdict verdict;
  verdict.class_name = "Sector";
  verdict.is_composite = true;
  verdict.invocation_errors = 1;
  verdict.lint_findings = 2;
  verdict.subsystem_errors.push_back(
      {"a", "Valve", {"test", "open"}, "(not final)"});
  verdict.claim_errors.push_back({"(!a.open) W b.open", {"a.test", "a.open"}});
  verdict.diagnostics.push_back({1, 12, 5, "invalid subsystem usage"});
  return verdict;
}

support::Digest128 key_of(const char* text) {
  return support::hash_bytes(text);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The typed lookups the query engine makes over the byte store: encode on
// put; on get, decode and count a payload that does not decode back out as
// an invalidation.
bool store_verdict(BehaviorCache& cache, const support::Digest128& key,
                   const CachedVerdict& verdict) {
  return cache.put(CacheKind::kVerdict, key,
                   BehaviorCache::encode_verdict(verdict));
}

std::optional<CachedVerdict> load_verdict(BehaviorCache& cache,
                                          const support::Digest128& key) {
  const auto bytes = cache.get(CacheKind::kVerdict, key);
  if (!bytes) return std::nullopt;
  auto verdict = BehaviorCache::decode_verdict(*bytes);
  if (!verdict) cache.reject_hit();
  return verdict;
}

std::optional<fsm::CompiledDfa> load_table(BehaviorCache& cache,
                                           const support::Digest128& key,
                                           SymbolTable& table) {
  const auto bytes = cache.get(CacheKind::kTable, key);
  if (!bytes) return std::nullopt;
  try {
    return fsm::CompiledDfa::from_bytes(*bytes, table);
  } catch (const support::BinaryFormatError&) {
    cache.reject_hit();
    return std::nullopt;
  }
}

TEST(Cache, VerdictRoundTrip) {
  BehaviorCache cache(fresh_dir("verdict_round_trip"));
  const auto key = key_of("Sector");
  const CachedVerdict stored = sample_verdict();
  ASSERT_TRUE(store_verdict(cache, key, stored));

  const auto loaded = load_verdict(cache, key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->class_name, "Sector");
  EXPECT_TRUE(loaded->is_composite);
  EXPECT_EQ(loaded->invocation_errors, 1u);
  EXPECT_EQ(loaded->lint_findings, 2u);
  ASSERT_EQ(loaded->subsystem_errors.size(), 1u);
  EXPECT_EQ(loaded->subsystem_errors[0].field, "a");
  EXPECT_EQ(loaded->subsystem_errors[0].class_name, "Valve");
  EXPECT_EQ(loaded->subsystem_errors[0].counterexample,
            (std::vector<std::string>{"test", "open"}));
  EXPECT_EQ(loaded->subsystem_errors[0].detail, "(not final)");
  ASSERT_EQ(loaded->claim_errors.size(), 1u);
  EXPECT_EQ(loaded->claim_errors[0].formula, "(!a.open) W b.open");
  ASSERT_EQ(loaded->diagnostics.size(), 1u);
  EXPECT_EQ(loaded->diagnostics[0].severity, 1);
  EXPECT_EQ(loaded->diagnostics[0].line, 12u);
  EXPECT_EQ(loaded->diagnostics[0].column, 5u);
  EXPECT_EQ(loaded->diagnostics[0].message, "invalid subsystem usage");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(Cache, AbsentEntryIsAMiss) {
  BehaviorCache cache(fresh_dir("absent"));
  EXPECT_FALSE(load_verdict(cache, key_of("nothing")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(Cache, TruncationAtEveryLengthDegradesToMiss) {
  BehaviorCache cache(fresh_dir("truncation"));
  const auto key = key_of("Sector");
  ASSERT_TRUE(store_verdict(cache, key, sample_verdict()));
  const std::string path =
      cache.entry_path(key, CacheKind::kVerdict);
  const std::string intact = read_file(path);
  ASSERT_FALSE(intact.empty());

  for (std::size_t cut = 0; cut < intact.size(); ++cut) {
    write_file(path, std::string_view(intact).substr(0, cut));
    EXPECT_FALSE(load_verdict(cache, key).has_value())
        << "prefix of " << cut << " bytes replayed";
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.invalidations, intact.size());
}

TEST(Cache, EveryBitFlipDegradesToMiss) {
  BehaviorCache cache(fresh_dir("bit_flips"));
  const auto key = key_of("Sector");
  ASSERT_TRUE(store_verdict(cache, key, sample_verdict()));
  const std::string path =
      cache.entry_path(key, CacheKind::kVerdict);
  const std::string intact = read_file(path);

  for (std::size_t byte = 0; byte < intact.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = intact;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      write_file(path, corrupt);
      EXPECT_FALSE(load_verdict(cache, key).has_value())
          << "flip of byte " << byte << " bit " << bit << " replayed";
    }
  }
}

TEST(Cache, VersionSkewDegradesToMiss) {
  BehaviorCache cache(fresh_dir("version_skew"));
  const auto key = key_of("Sector");
  ASSERT_TRUE(store_verdict(cache, key, sample_verdict()));
  const std::string path =
      cache.entry_path(key, CacheKind::kVerdict);
  std::string image = read_file(path);
  // The u32 format version sits right after the 4-byte magic.
  image[4] = static_cast<char>(kCacheFormatVersion + 1);
  write_file(path, image);
  EXPECT_FALSE(load_verdict(cache, key).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, RenamedEntryDegradesToMiss) {
  // A valid entry copied under a different key must be rejected by the
  // embedded-key check -- content addressing, not name addressing.
  BehaviorCache cache(fresh_dir("renamed"));
  const auto key = key_of("Sector");
  const auto other = key_of("Valve");
  ASSERT_TRUE(store_verdict(cache, key, sample_verdict()));
  fs::copy_file(cache.entry_path(key, CacheKind::kVerdict),
                cache.entry_path(other, CacheKind::kVerdict));
  EXPECT_FALSE(load_verdict(cache, other).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, WrongKindDegradesToMiss) {
  BehaviorCache cache(fresh_dir("wrong_kind"));
  const auto key = key_of("Sector");
  // An artifact image placed at the verdict path: framing kind mismatch.
  const std::string image = BehaviorCache::encode_file(
      key, CacheKind::kArtifact, "MODULE main");
  write_file(cache.entry_path(key, CacheKind::kVerdict), image);
  EXPECT_FALSE(load_verdict(cache, key).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, StoreLeavesNoTempFiles) {
  const std::string dir = fresh_dir("atomic");
  BehaviorCache cache(dir);
  ASSERT_TRUE(store_verdict(cache, key_of("Sector"), sample_verdict()));
  ASSERT_TRUE(cache.put(CacheKind::kArtifact, key_of("smv"), "MODULE main"));
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);
}

TEST(Cache, CompiledTableRoundTrip) {
  BehaviorCache cache(fresh_dir("table"));
  SymbolTable table;
  const Symbol ping = table.intern("ping");
  fsm::Dfa dfa(2, {ping});
  dfa.set_transition(0, 0, 1);
  dfa.set_transition(1, 0, 1);
  dfa.set_accepting(1, true);
  const fsm::CompiledDfa compiled = fsm::CompiledDfa::compile(dfa, table);

  const auto key = key_of("Pinger");
  ASSERT_TRUE(cache.put(CacheKind::kTable, key, compiled.to_bytes()));

  SymbolTable other;
  other.intern("unrelated");
  const auto loaded = load_table(cache, key, other);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cells(), compiled.cells());
  EXPECT_EQ(loaded->event_names(), compiled.event_names());
  EXPECT_EQ(loaded->to_bytes(), compiled.to_bytes());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(Cache, TableKindIsDistinctFromArtifactKind) {
  // A stored table must not answer an artifact get of the same key (and
  // vice versa): the kind is part of the entry identity.
  BehaviorCache cache(fresh_dir("table_kind"));
  SymbolTable table;
  const Symbol ping = table.intern("ping");
  fsm::Dfa dfa(1, {ping});
  dfa.set_transition(0, 0, 0);
  dfa.set_accepting(0, true);
  const auto key = key_of("Pinger");
  ASSERT_TRUE(cache.put(CacheKind::kTable, key,
                        fsm::CompiledDfa::compile(dfa, table).to_bytes()));
  SymbolTable scratch;
  EXPECT_FALSE(cache.get(CacheKind::kArtifact, key).has_value());
  EXPECT_TRUE(load_table(cache, key, scratch).has_value());
}

TEST(Cache, CorruptTablePayloadDegradesToMiss) {
  // Well-framed entry, garbage payload: framing passes, the table decoder
  // rejects, and the hit is re-counted as an invalidation.
  BehaviorCache cache(fresh_dir("table_corrupt"));
  const auto key = key_of("Pinger");
  const std::string image = BehaviorCache::encode_file(
      key, CacheKind::kTable, "not a compiled table");
  write_file(cache.entry_path(key, CacheKind::kTable), image);
  SymbolTable table;
  EXPECT_FALSE(load_table(cache, key, table).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(Cache, TableTruncationAndBitFlipsDegradeToCountedMisses) {
  // The full adversarial sweep over the on-disk image: every truncation
  // and every bit flip must load as nullopt (a miss or a counted
  // invalidation), never crash, never replay garbage.
  SymbolTable table;
  const Symbol a = table.intern("a");
  const Symbol b = table.intern("b");
  fsm::Dfa dfa(3, {a, b});
  dfa.set_transition(0, 0, 1);
  dfa.set_transition(0, 1, 2);
  dfa.set_transition(1, 0, 2);
  dfa.set_transition(1, 1, 0);
  dfa.set_transition(2, 0, 2);
  dfa.set_transition(2, 1, 2);
  dfa.set_accepting(2, true);
  const fsm::CompiledDfa compiled = fsm::CompiledDfa::compile(dfa, table);
  const auto key = key_of("Flipper");

  std::string image;
  {
    BehaviorCache cache(fresh_dir("table_image"));
    ASSERT_TRUE(cache.put(CacheKind::kTable, key, compiled.to_bytes()));
    image = read_file(cache.entry_path(key, CacheKind::kTable));
  }

  BehaviorCache cache(fresh_dir("table_adversarial"));
  const std::string path =
      cache.entry_path(key, CacheKind::kTable);
  std::uint64_t rejected = 0;
  for (std::size_t length = 0; length < image.size(); length += 7) {
    write_file(path, image.substr(0, length));
    SymbolTable scratch;
    if (!load_table(cache, key, scratch).has_value()) ++rejected;
  }
  for (std::size_t bit = 0; bit < image.size() * 8; bit += 11) {
    std::string mutated = image;
    mutated[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
    write_file(path, mutated);
    SymbolTable scratch;
    (void)load_table(cache, key, scratch);  // must not crash
  }
  EXPECT_GT(rejected, 0u);
  // The pristine image still loads after the storm.
  write_file(path, image);
  SymbolTable scratch;
  const auto loaded = load_table(cache, key, scratch);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cells(), compiled.cells());
}

TEST(Cache, ArtifactRoundTripPreservesBytes) {
  BehaviorCache cache(fresh_dir("artifact"));
  const std::string smv = "MODULE main\nVAR s : {a, b};\n\x01\x02\xff";
  ASSERT_TRUE(cache.put(CacheKind::kArtifact, key_of("smv"), smv));
  const auto loaded = cache.get(CacheKind::kArtifact, key_of("smv"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, smv);
}

TEST(Cache, OverwriteReplacesEntry) {
  BehaviorCache cache(fresh_dir("overwrite"));
  const auto key = key_of("Sector");
  CachedVerdict verdict = sample_verdict();
  ASSERT_TRUE(store_verdict(cache, key, verdict));
  verdict.lint_findings = 99;
  ASSERT_TRUE(store_verdict(cache, key, verdict));
  const auto loaded = load_verdict(cache, key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lint_findings, 99u);
}

TEST(Cache, DecodeVerdictIsTotalOnRandomBytes) {
  // decode_verdict is the surface the fuzzer drives: any byte soup must
  // produce nullopt or a verdict, never UB or a crash.
  std::mt19937_64 rng(0xC0FFEE);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes(rng() % 64, '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    (void)BehaviorCache::decode_verdict(bytes);
  }
  // A legitimate encoding still decodes after the storm.
  const auto ok =
      BehaviorCache::decode_verdict(
          BehaviorCache::encode_verdict(sample_verdict()));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->class_name, "Sector");
}

TEST(Cache, DecodeVerdictRejectsImplausibleCounts) {
  // A forged count field must be rejected before any giant allocation.
  std::string payload = BehaviorCache::encode_verdict(sample_verdict());
  // subsystem count is the u64 after name (8+6), composite (1), and the two
  // u64 counters: offset 8 + 6 + 1 + 8 + 8 = 31.
  for (int i = 0; i < 8; ++i) payload[31 + i] = '\xff';
  EXPECT_FALSE(BehaviorCache::decode_verdict(payload).has_value());
}

TEST(Cache, ThrowsWhenDirectoryCannotBeCreated) {
  const std::string dir = fresh_dir("not_a_dir");
  fs::create_directories(fs::path(dir).parent_path());
  write_file(dir, "a plain file where the cache dir should go");
  EXPECT_THROW({ BehaviorCache cache(dir); }, std::runtime_error);
}

// -- Fingerprint sensitivity -------------------------------------------------
//
// The cache key walks the whole annotated AST; these tests drive every node
// kind through the walk and check that any one-token change lands in a
// different key (a collision here would mean a stale cache hit).

support::Digest128 fingerprint_of(std::string_view source) {
  Verifier verifier;
  verifier.add_source(source);
  return spec_fingerprint(verifier.classes().front());
}

// One class whose single operation touches every expression and statement
// kind the fingerprint walks: assignments over string/bool/None/number/
// list/tuple/unary/binary/subscript/attribute expressions, while with
// break, for with continue, try/except/finally, raise, pass, and a bare
// expression statement.
constexpr std::string_view kSinkTemplate = R"(@sys
class Sink:
    @op_initial_final
    def churn(self):
        label = "name"
        flag = True
        empty = None
        total = 1 + 2
        items = [1, 2]
        pair = (total, flag)
        neg = -total
        head = items[0]
        attr = self.field
        ping()
        while flag:
            break
        for item in items:
            continue
        try:
            raise head
        except:
            pass
        finally:
            pass
        return ["churn"]
)";

TEST(Fingerprint, KitchenSinkIsDeterministic) {
  EXPECT_EQ(fingerprint_of(kSinkTemplate), fingerprint_of(kSinkTemplate));
}

TEST(Fingerprint, EveryNodeKindFeedsTheKey) {
  // Each entry is (needle, replacement): a one-token edit inside one node
  // kind.  All edits -- and the original -- must hash differently.
  const std::pair<std::string_view, std::string_view> edits[] = {
      {"\"name\"", "\"mane\""},          // string literal
      {"True", "False"},                 // bool literal
      {"empty = None", "empty = label"}, // None vs name
      {"1 + 2", "1 - 2"},                // binary operator
      {"[1, 2]", "[1, 3]"},              // number inside a list
      {"(total, flag)", "(flag, total)"},// tuple element order
      {"-total", "-head"},               // unary operand
      {"items[0]", "items[1]"},          // subscript index
      {"self.field", "self.other"},      // attribute name
      {"ping()", "pong()"},              // call in an expr statement
      {"while flag", "while neg"},       // while condition
      {"for item in items", "for item in pair"},  // for iterable
      {"raise head", "raise attr"},      // raise value
      {"break", "continue"},             // loop-control statement kind
  };
  std::set<std::string> seen;
  seen.insert(support::to_hex(fingerprint_of(kSinkTemplate)));
  for (const auto& [needle, replacement] : edits) {
    std::string edited(kSinkTemplate);
    const std::size_t at = edited.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    edited.replace(at, needle.size(), replacement);
    const bool fresh =
        seen.insert(support::to_hex(fingerprint_of(edited))).second;
    EXPECT_TRUE(fresh) << "edit '" << needle << "' -> '" << replacement
                       << "' did not change the fingerprint";
  }
  EXPECT_EQ(seen.size(), 1 + std::size(edits));
}

TEST(Fingerprint, NullExprAndNullStmtAreTagged) {
  // The walker tags absent nodes (bare `return`, a null statement slot)
  // instead of skipping them, so they cannot alias a shorter body.
  ClassSpec spec;
  spec.name = "Synthetic";
  Operation op;
  op.name = "go";
  op.body.push_back(nullptr);  // null statement
  auto bare_return = std::make_shared<upy::Stmt>();
  bare_return->node = upy::ReturnStmt{nullptr};  // null expression
  op.body.push_back(bare_return);
  spec.operations.push_back(op);
  const support::Digest128 with_nulls = spec_fingerprint(spec);

  ClassSpec shorter = spec;
  shorter.operations.front().body.pop_back();
  EXPECT_NE(with_nulls, spec_fingerprint(shorter));
  EXPECT_EQ(with_nulls, spec_fingerprint(spec));
}

TEST(Fingerprint, SubsystemCycleTerminatesWithDistinctKeys) {
  // Mutually recursive subsystems are malformed input (diagnosed by the
  // frontend) but the key fold must still terminate, deterministically.
  constexpr std::string_view source = R"(@sys(["b"])
class A:
    def __init__(self):
        self.b = B()
    @op_initial_final
    def run(self):
        return ["run"]

@sys(["a"])
class B:
    def __init__(self):
        self.a = A()
    @op_initial_final
    def run(self):
        return ["run"]
)";
  Verifier verifier;
  verifier.add_source(source);
  const support::Digest128 key_a =
      verifier.cache_key(*verifier.find_class("A"));
  const support::Digest128 key_b =
      verifier.cache_key(*verifier.find_class("B"));
  EXPECT_NE(key_a, key_b);

  Verifier again;
  again.add_source(source);
  EXPECT_EQ(key_a, again.cache_key(*again.find_class("A")));
}

}  // namespace
}  // namespace shelley::core
