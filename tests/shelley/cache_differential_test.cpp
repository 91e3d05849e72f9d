// Differential warm/cold testing of incremental verification over the paper
// corpus: a warm run must replay the cold run byte-for-byte (text render,
// JSON report, diagnostics), and a one-character edit must invalidate
// exactly the edited class plus its dependents -- nothing less (stale
// results) and nothing more (lost incrementality).
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query.hpp"
#include "engine/workspace.hpp"
#include "paper_sources.hpp"
#include "shelley/cache.hpp"
#include "shelley/report_json.hpp"
#include "shelley/verifier.hpp"

namespace shelley::core {
namespace {

namespace fs = std::filesystem;

// An extra leaf class with no relation to the valve hierarchy: the canary
// that dependency-closure invalidation does not over-invalidate.
constexpr const char* kLedSource = R"(
@sys
class Led:
    @op_initial_final
    def blink(self):
        return ["blink"]
)";

std::string fresh_dir(const char* name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "shelley_cache_diff" / name;
  fs::remove_all(dir);
  return dir.string();
}

/// The full corpus: Valve (leaf), three composites depending on it, and the
/// unrelated Led.  `valve` and `led` are injectable so tests can edit them.
std::vector<std::string> corpus(const std::string& valve,
                                const std::string& led) {
  return {valve, examples::kBadSectorSource, examples::kSectorSource,
          examples::kGoodSectorSource, led};
}

/// One full run against `cache`: loads every source, verifies all classes,
/// and renders everything a user could observe.
struct RunResult {
  std::string text;   // report render + all diagnostics
  std::string json;   // --json equivalent
  CacheStats stats;   // cache counters for THIS run
};

RunResult run_corpus(const std::string& cache_dir,
                     const std::vector<std::string>& sources) {
  BehaviorCache cache(cache_dir);
  const CacheStats before = cache.stats();
  engine::Workspace workspace;
  workspace.set_cache(&cache);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    workspace.load_source("source" + std::to_string(i) + ".py", sources[i]);
  }
  engine::QueryEngine engine(workspace);
  const Report report = engine.verify_all(1);
  Verifier& verifier = workspace.verifier();

  RunResult result;
  result.text = report.render(verifier.symbols());
  for (const auto& diag : verifier.diagnostics().diagnostics()) {
    result.text += std::string(to_string(diag.severity)) + " " +
                   to_string(diag.loc) + ": " + diag.message + "\n";
  }
  result.json = report_to_json(report, verifier);
  result.stats = cache.stats();
  result.stats.hits -= before.hits;
  result.stats.misses -= before.misses;
  result.stats.invalidations -= before.invalidations;
  result.stats.stores -= before.stores;
  return result;
}

TEST(CacheDifferential, WarmRunIsByteIdenticalAndAllHits) {
  const std::string dir = fresh_dir("warm_cold");
  const auto sources = corpus(examples::kValveSource, kLedSource);

  const RunResult cold = run_corpus(dir, sources);
  EXPECT_EQ(cold.stats.hits, 0u);
  EXPECT_EQ(cold.stats.misses, 5u);  // Valve, BadSector, Sector, GoodSector,
                                     // Led -- every @sys class
  // BadSector and Sector fail verification; failed verdicts are cached too
  // (they are deterministic results, not aborts).
  EXPECT_EQ(cold.stats.stores, 5u);

  const RunResult warm = run_corpus(dir, sources);
  EXPECT_EQ(warm.stats.hits, 5u);
  EXPECT_EQ(warm.stats.misses, 0u);
  EXPECT_EQ(warm.stats.invalidations, 0u);
  EXPECT_EQ(warm.text, cold.text);
  EXPECT_EQ(warm.json, cold.json);
}

TEST(CacheDifferential, EditingLeafInvalidatesItAndAllDependents) {
  const std::string dir = fresh_dir("edit_leaf");
  std::string valve = examples::kValveSource;

  run_corpus(dir, corpus(valve, kLedSource));

  // One-character substitution inside Valve.test's body (same length, so no
  // other location shifts): self.status.value() -> self.status.valse().
  const std::size_t at = valve.find("value()");
  ASSERT_NE(at, std::string::npos);
  valve.replace(at, 5, "valse");

  const RunResult edited = run_corpus(dir, corpus(valve, kLedSource));
  // Valve changed; BadSector, Sector, GoodSector fold Valve's key into
  // their own (dependency closure) and must miss with it.  Led is the only
  // hit.
  EXPECT_EQ(edited.stats.hits, 1u);
  EXPECT_EQ(edited.stats.misses, 4u);
  EXPECT_EQ(edited.stats.invalidations, 0u);

  // And the new results are themselves replayable.
  const RunResult warm = run_corpus(dir, corpus(valve, kLedSource));
  EXPECT_EQ(warm.stats.hits, 5u);
  EXPECT_EQ(warm.stats.misses, 0u);
  EXPECT_EQ(warm.text, edited.text);
  EXPECT_EQ(warm.json, edited.json);
}

TEST(CacheDifferential, EditingIsolatedClassInvalidatesOnlyIt) {
  const std::string dir = fresh_dir("edit_leaf_isolated");
  std::string led = kLedSource;

  run_corpus(dir, corpus(examples::kValveSource, led));

  // blink -> blunk (the op name itself; one character, same length).
  const std::size_t at = led.find("[\"blink\"]");
  ASSERT_NE(at, std::string::npos);
  led.replace(at + 4, 1, "u");
  const std::size_t def_at = led.find("def blink");
  ASSERT_NE(def_at, std::string::npos);
  led.replace(def_at + 6, 1, "u");

  const RunResult edited = run_corpus(dir, corpus(examples::kValveSource, led));
  EXPECT_EQ(edited.stats.hits, 4u);  // the whole valve hierarchy
  EXPECT_EQ(edited.stats.misses, 1u);
}

TEST(CacheDifferential, CompositeKeyFoldsSubsystemClosure) {
  // Direct key-level check of the same property: BadSector's own text is
  // unchanged, yet its key must change when Valve's does.
  Verifier original;
  original.add_source(examples::kValveSource);
  original.add_source(examples::kBadSectorSource);

  std::string valve = examples::kValveSource;
  const std::size_t at = valve.find("value()");
  ASSERT_NE(at, std::string::npos);
  valve.replace(at, 5, "valse");
  Verifier edited;
  edited.add_source(valve);
  edited.add_source(examples::kBadSectorSource);

  const ClassSpec* original_bad = original.find_class("BadSector");
  const ClassSpec* edited_bad = edited.find_class("BadSector");
  ASSERT_NE(original_bad, nullptr);
  ASSERT_NE(edited_bad, nullptr);
  EXPECT_NE(original.cache_key(*original_bad), edited.cache_key(*edited_bad));

  // While two identical registrations agree on the key (content, not
  // identity, addressing).
  Verifier again;
  again.add_source(examples::kValveSource);
  again.add_source(examples::kBadSectorSource);
  const ClassSpec* again_bad = again.find_class("BadSector");
  ASSERT_NE(again_bad, nullptr);
  EXPECT_EQ(original.cache_key(*original_bad), again.cache_key(*again_bad));
}

TEST(CacheDifferential, ParallelWarmRunMatchesSerialCold) {
  const std::string dir = fresh_dir("parallel_warm");
  const auto sources = corpus(examples::kValveSource, kLedSource);
  const RunResult cold = run_corpus(dir, sources);

  // A warm run on worker threads must replay the identical bytes: symbol
  // pre-warming keeps interning order serial even when replays race.
  BehaviorCache cache(dir);
  engine::Workspace workspace;
  workspace.set_cache(&cache);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    workspace.load_source("source" + std::to_string(i) + ".py", sources[i]);
  }
  engine::QueryEngine engine(workspace);
  const Report report = engine.verify_all(4);
  Verifier& verifier = workspace.verifier();

  std::string text = report.render(verifier.symbols());
  for (const auto& diag : verifier.diagnostics().diagnostics()) {
    text += std::string(to_string(diag.severity)) + " " + to_string(diag.loc) +
            ": " + diag.message + "\n";
  }
  EXPECT_EQ(text, cold.text);
  EXPECT_EQ(report_to_json(report, verifier), cold.json);
  EXPECT_EQ(cache.stats().hits, 5u);
}

}  // namespace
}  // namespace shelley::core
