// QueryEngine: memo-tier layering, hit/miss accounting, byte-identical
// warm replay, and precise invalidation along the dependency closure.
#include "engine/query.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fsm/ops.hpp"
#include "paper_sources.hpp"
#include "shelley/automata.hpp"
#include "shelley/cache.hpp"

namespace shelley::engine {
namespace {

using core::CacheKind;

std::string fresh_dir(const char* tag) {
  static int counter = 0;
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    ("query_" + std::string(tag) + "_" +
                                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

class QueryTest : public ::testing::Test {
 protected:
  void load_paper_sources() {
    workspace_.load_source("valve.py", examples::kValveSource);
    workspace_.load_source("bad.py", examples::kBadSectorSource);
    workspace_.load_source("sector.py", examples::kSectorSource);
    workspace_.load_source("good.py", examples::kGoodSectorSource);
  }

  /// One verify_all sweep; returns the rendered report so runs can be
  /// compared byte for byte.
  std::string sweep(QueryEngine& engine) {
    workspace_.rewind_to_loaded();
    const core::Report report = engine.verify_all(1);
    std::string text = report.render(workspace_.verifier().symbols());
    for (const core::ClassReport& entry : report.classes) {
      text += entry.class_name + (entry.ok() ? ":ok\n" : ":fail\n");
    }
    return text;
  }

  Workspace workspace_;
};

TEST_F(QueryTest, ColdSweepMissesWarmSweepHits) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  const std::string cold = sweep(engine);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].misses, 4u);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 0u);
  EXPECT_EQ(engine.memo().stats().stores, 4u);

  const std::string warm = sweep(engine);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 4u);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].misses, 4u);  // unchanged
  EXPECT_EQ(warm, cold);  // replay is byte-identical
}

TEST_F(QueryTest, WarmDiagnosticsReplayVerbatim) {
  load_paper_sources();
  // An unknown successor is diagnosed at verification time, so the warm
  // replay must reproduce the diagnostic bytes, not just the verdict.
  workspace_.load_source("odd.py",
                         "@sys\nclass Odd:\n    @op_initial_final\n"
                         "    def go(self):\n"
                         "        return [\"nonexistent\"]\n");
  QueryEngine engine(workspace_);

  auto render_diags = [&] {
    workspace_.rewind_to_loaded();
    const core::Report report = engine.verify_all(1);
    (void)report;
    std::string text;
    const auto& diags = workspace_.verifier().diagnostics().diagnostics();
    for (std::size_t i = workspace_.load_diag_end(); i < diags.size(); ++i) {
      text += diags[i].message + "\n";
    }
    return text;
  };
  const std::string cold = render_diags();
  const std::string warm = render_diags();
  EXPECT_FALSE(cold.empty());  // BadSector produces findings
  EXPECT_EQ(warm, cold);
}

TEST_F(QueryTest, ParallelSweepMatchesSerialBytes) {
  load_paper_sources();
  QueryEngine serial_engine(workspace_);
  const std::string serial = sweep(serial_engine);

  Workspace parallel_ws;
  parallel_ws.load_source("valve.py", examples::kValveSource);
  parallel_ws.load_source("bad.py", examples::kBadSectorSource);
  parallel_ws.load_source("sector.py", examples::kSectorSource);
  parallel_ws.load_source("good.py", examples::kGoodSectorSource);
  QueryEngine parallel_engine(parallel_ws);
  const core::Report report = parallel_engine.verify_all(4);
  std::string parallel = report.render(parallel_ws.verifier().symbols());
  for (const core::ClassReport& entry : report.classes) {
    parallel += entry.class_name + (entry.ok() ? ":ok\n" : ":fail\n");
  }
  EXPECT_EQ(parallel, serial);
}

TEST_F(QueryTest, UpdateInvalidatesExactlyTheClosure) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  (void)sweep(engine);
  ASSERT_EQ(engine.memo().stats().stores, 4u);

  // Semantic edit to Valve: every composite folds Valve's key in, so the
  // whole family invalidates.
  std::string edited = examples::kValveSource;
  const auto pos = edited.find("return [\"test\"]");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 15, "return [\"test\", \"clean\"]");
  const UpdateResult update = workspace_.update_source("valve.py", edited);
  EXPECT_EQ(update.changed.size(), 4u);
  EXPECT_EQ(engine.apply_update(update), 4u);
  EXPECT_EQ(engine.memo().stats().invalidations, 4u);

  (void)sweep(engine);
  // No survivors: the whole closure re-verifies from scratch.
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 0u);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].misses, 8u);
}

TEST_F(QueryTest, CanaryOutsideClosureKeepsItsMemoEntry) {
  load_paper_sources();
  workspace_.load_source("led.py",
                         "@sys\nclass Led:\n    @op_initial_final\n"
                         "    def blink(self):\n        return [\"blink\"]\n");
  QueryEngine engine(workspace_);
  (void)sweep(engine);
  ASSERT_EQ(engine.stats()[CacheKind::kVerdict].misses, 5u);

  std::string edited = examples::kValveSource;
  const auto pos = edited.find("return [\"test\"]");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 15, "return [\"test\", \"clean\"]");
  const std::size_t dropped =
      engine.apply_update(workspace_.update_source("valve.py", edited));
  EXPECT_EQ(dropped, 4u);  // Led's entry survives

  (void)sweep(engine);
  // The valve family re-verifies; Led replays from the memo.
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 1u);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].misses, 9u);
}

TEST_F(QueryTest, CommentOnlyEditKeepsEveryEntry) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  const std::string cold = sweep(engine);

  std::string edited = examples::kValveSource;
  const auto pos = edited.find("def test(self):");
  ASSERT_NE(pos, std::string::npos);
  edited.insert(pos + 15, "  # comment");
  const std::size_t dropped =
      engine.apply_update(workspace_.update_source("valve.py", edited));
  EXPECT_EQ(dropped, 0u);

  const std::string warm = sweep(engine);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 4u);
  EXPECT_EQ(warm, cold);
}

TEST_F(QueryTest, CompiledTableMemoizesAndReplaysIdentically) {
  workspace_.load_source("valve.py", examples::kValveSource);
  QueryEngine engine(workspace_);
  const core::ClassSpec* spec = workspace_.verifier().find_class("Valve");
  ASSERT_NE(spec, nullptr);

  const fsm::CompiledDfa cold = engine.compiled_table(*spec);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].misses, 1u);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].hits, 0u);
  const fsm::CompiledDfa warm = engine.compiled_table(*spec);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].hits, 1u);
  EXPECT_EQ(warm.to_bytes(), cold.to_bytes());
  // The table agrees with the usage DFA it was compiled from.
  SymbolTable& table = workspace_.verifier().symbols();
  const fsm::Dfa dfa =
      fsm::minimize(fsm::determinize(core::usage_nfa(*spec, table)));
  EXPECT_EQ(cold.state_count(), dfa.state_count() + 1);  // + sink row
}

TEST_F(QueryTest, CompiledTablePromotesFromTheDiskTier) {
  const std::string dir = fresh_dir("table");
  std::string cold_bytes;
  // First session: compile and persist.
  {
    Workspace workspace;
    core::BehaviorCache cache(dir);
    workspace.set_cache(&cache);
    workspace.load_source("valve.py", examples::kValveSource);
    QueryEngine engine(workspace);
    const core::ClassSpec* spec = workspace.verifier().find_class("Valve");
    ASSERT_NE(spec, nullptr);
    cold_bytes = engine.compiled_table(*spec).to_bytes();
    EXPECT_EQ(engine.stats()[CacheKind::kTable].misses, 1u);
    EXPECT_GE(cache.stats().stores, 1u);
  }
  // Second session, fresh memo: the disk tier answers byte-identically,
  // then the in-memory tier takes over.
  Workspace workspace;
  core::BehaviorCache cache(dir);
  workspace.set_cache(&cache);
  workspace.load_source("valve.py", examples::kValveSource);
  QueryEngine engine(workspace);
  const core::ClassSpec* spec = workspace.verifier().find_class("Valve");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(engine.compiled_table(*spec).to_bytes(), cold_bytes);
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)engine.compiled_table(*spec);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);  // memo answered, disk untouched
}

TEST_F(QueryTest, CompiledTableInvalidatesWithTheClosure) {
  workspace_.load_source("valve.py", examples::kValveSource);
  QueryEngine engine(workspace_);
  const core::ClassSpec* spec = workspace_.verifier().find_class("Valve");
  ASSERT_NE(spec, nullptr);
  (void)engine.compiled_table(*spec);
  // A semantic edit to the class invalidates the memoized table: the next
  // query recompiles against the new fingerprint.
  std::string edited = examples::kValveSource;
  const auto pos = edited.find("return [\"test\"]");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 15, "return [\"test\", \"clean\"]");
  (void)engine.apply_update(workspace_.update_source("valve.py", edited));
  spec = workspace_.verifier().find_class("Valve");
  ASSERT_NE(spec, nullptr);
  (void)engine.compiled_table(*spec);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].misses, 2u);
}

TEST_F(QueryTest, SmvModelMemoizesWhenAllClaimsParse) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  const core::ClassSpec* spec =
      workspace_.verifier().find_class("GoodSector");
  ASSERT_NE(spec, nullptr);

  const SmvArtifact cold = engine.smv_model(*spec);
  EXPECT_TRUE(cold.skipped_claims.empty());
  EXPECT_EQ(engine.stats()[CacheKind::kArtifact].misses, 1u);
  const SmvArtifact warm = engine.smv_model(*spec);
  EXPECT_EQ(engine.stats()[CacheKind::kArtifact].hits, 1u);
  EXPECT_EQ(warm.text, cold.text);
}

TEST_F(QueryTest, SmvModelWithSkippedClaimsIsNeverMemoized) {
  workspace_.load_source("valve.py", examples::kValveSource);
  workspace_.load_source("odd.py",
                         "@claim(\"this is not ltlf ((\")\n"
                         "@sys([\"a\"])\nclass Odd:\n"
                         "    def __init__(self):\n        self.a = Valve()\n"
                         "    @op_initial_final\n    def go(self):\n"
                         "        return []\n");
  QueryEngine engine(workspace_);
  const core::ClassSpec* spec = workspace_.verifier().find_class("Odd");
  ASSERT_NE(spec, nullptr);

  const SmvArtifact first = engine.smv_model(*spec);
  EXPECT_FALSE(first.skipped_claims.empty());
  const SmvArtifact second = engine.smv_model(*spec);
  // Both runs fell through -- the skip notice must reprint every time.
  EXPECT_EQ(engine.stats()[CacheKind::kArtifact].hits, 0u);
  EXPECT_EQ(engine.stats()[CacheKind::kArtifact].misses, 2u);
  EXPECT_EQ(second.skipped_claims, first.skipped_claims);
  EXPECT_EQ(second.text, first.text);
}

TEST_F(QueryTest, MemoLayersAboveTheDiskCache) {
  const std::string dir = fresh_dir("layer");
  core::BehaviorCache cache(dir);
  workspace_.set_cache(&cache);
  load_paper_sources();
  QueryEngine engine(workspace_);
  (void)sweep(engine);
  const auto cold_disk = cache.stats();
  EXPECT_GE(cold_disk.misses, 4u);  // cold run populated the disk tier

  (void)sweep(engine);
  // The warm sweep is answered entirely by the in-memory tier: the disk
  // cache sees no further traffic.
  EXPECT_EQ(cache.stats().hits, cold_disk.hits);
  EXPECT_EQ(cache.stats().misses, cold_disk.misses);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 4u);
}

// Refused bytes: a payload that does not decode, or a verdict naming
// another class, planted in a tier under a class's real key.  Neither is
// ever replayed -- the answers stay the cold bytes -- and the tier that held
// it counts the lookup as a miss (memo) or an invalidation (disk).
class RefusedBytesTest : public QueryTest {
 protected:
  /// A cold sweep and Valve table over the paper sources, no tiers.
  void SetUp() override {
    Workspace cold;
    for (const auto& [path, text] : sources()) cold.load_source(path, text);
    QueryEngine engine(cold);
    cold_report_ = render(cold, engine.verify_all(1));
    const core::ClassSpec* valve = cold.verifier().find_class("Valve");
    ASSERT_NE(valve, nullptr);
    cold_table_ = engine.compiled_table(*valve).to_bytes();
  }

  static std::vector<std::pair<std::string, std::string>> sources() {
    return {{"valve.py", examples::kValveSource},
            {"bad.py", examples::kBadSectorSource},
            {"sector.py", examples::kSectorSource},
            {"good.py", examples::kGoodSectorSource}};
  }

  static std::string render(Workspace& workspace,
                            const core::Report& report) {
    std::string text = report.render(workspace.verifier().symbols());
    const auto& diags = workspace.verifier().diagnostics().diagnostics();
    for (std::size_t i = workspace.load_diag_end(); i < diags.size(); ++i) {
      text += diags[i].message + "\n";
    }
    return text;
  }

  support::Digest128 key_of(const char* name) {
    const core::ClassSpec* spec = workspace_.verifier().find_class(name);
    EXPECT_NE(spec, nullptr);
    return workspace_.verifier().cache_key(*spec);
  }

  static std::string foreign_verdict() {
    core::CachedVerdict verdict;
    verdict.class_name = "Pump";
    return core::BehaviorCache::encode_verdict(verdict);
  }

  std::string cold_report_;
  std::string cold_table_;
};

TEST_F(RefusedBytesTest, MemoTierNeverReplaysThem) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  engine.memo().put(CacheKind::kVerdict, key_of("Valve"), "garbage");
  engine.memo().put(CacheKind::kVerdict, key_of("Sector"), foreign_verdict());
  engine.memo().put(CacheKind::kTable, key_of("Valve"), "garbage");

  workspace_.rewind_to_loaded();
  EXPECT_EQ(render(workspace_, engine.verify_all(1)), cold_report_);
  const core::ClassSpec* valve = workspace_.verifier().find_class("Valve");
  ASSERT_NE(valve, nullptr);
  EXPECT_EQ(engine.compiled_table(*valve).to_bytes(), cold_table_);

  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 0u);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].misses, 4u);
  EXPECT_EQ(engine.stats()[CacheKind::kTable].misses, 1u);
  EXPECT_EQ(engine.memo().stats().hits, 0u);
  EXPECT_EQ(engine.memo().stats().misses, 5u);
  // The rebuilt answers replaced the refused bytes: a second sweep hits.
  workspace_.rewind_to_loaded();
  EXPECT_EQ(render(workspace_, engine.verify_all(1)), cold_report_);
  EXPECT_EQ(engine.stats()[CacheKind::kVerdict].hits, 4u);
}

TEST_F(RefusedBytesTest, DiskTierNeverReplaysThem) {
  core::BehaviorCache cache(fresh_dir("refused"));
  workspace_.set_cache(&cache);
  load_paper_sources();
  const auto plant = [&](CacheKind kind, const char* name,
                         const std::string& payload) {
    const support::Digest128 key = key_of(name);
    std::ofstream(cache.entry_path(key, kind), std::ios::binary)
        << core::BehaviorCache::encode_file(key, kind, payload);
  };
  plant(CacheKind::kVerdict, "Valve", "garbage");
  plant(CacheKind::kVerdict, "Sector", foreign_verdict());
  plant(CacheKind::kTable, "Valve", "garbage");

  QueryEngine engine(workspace_);
  workspace_.rewind_to_loaded();
  EXPECT_EQ(render(workspace_, engine.verify_all(1)), cold_report_);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);  // BadSector, GoodSector
  EXPECT_EQ(cache.stats().stores, 4u);
  const core::ClassSpec* valve = workspace_.verifier().find_class("Valve");
  ASSERT_NE(valve, nullptr);
  EXPECT_EQ(engine.compiled_table(*valve).to_bytes(), cold_table_);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().invalidations, 3u);
  EXPECT_EQ(cache.stats().stores, 5u);

  // The stores overwrote the planted entries: a fresh engine (empty memo)
  // replays every answer from disk.
  QueryEngine fresh(workspace_);
  workspace_.rewind_to_loaded();
  EXPECT_EQ(render(workspace_, fresh.verify_all(1)), cold_report_);
  EXPECT_EQ(fresh.compiled_table(*valve).to_bytes(), cold_table_);
  EXPECT_EQ(cache.stats().hits, 5u);
  EXPECT_EQ(cache.stats().invalidations, 3u);
}

TEST_F(QueryTest, VerifyClassUnknownNameReportsError) {
  load_paper_sources();
  QueryEngine engine(workspace_);
  workspace_.rewind_to_loaded();
  const core::ClassReport report = engine.verify_class("Nonexistent");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(workspace_.verifier().diagnostics().has_errors());
}

}  // namespace
}  // namespace shelley::engine
