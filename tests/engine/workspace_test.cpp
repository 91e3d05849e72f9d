// Workspace: source registry, content-memoized parsing, load summaries,
// and the key-diff protocol of update_source.
#include "engine/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "paper_sources.hpp"

namespace shelley::engine {
namespace {

TEST(WorkspaceTest, LoadSourceRegistersClasses) {
  Workspace workspace;
  const core::FileSummary& summary =
      workspace.load_source("valve.py", examples::kValveSource);
  EXPECT_TRUE(summary.loaded);
  EXPECT_EQ(summary.parse_errors, 0u);
  EXPECT_NE(workspace.verifier().find_class("Valve"), nullptr);
  EXPECT_FALSE(workspace.load_failed());
  EXPECT_EQ(workspace.parse_stats().misses, 1u);
}

TEST(WorkspaceTest, MissingFileRecordsOpenFailure) {
  Workspace workspace;
  const core::FileSummary& summary =
      workspace.load_file("/nonexistent/shelley.py");
  EXPECT_FALSE(summary.loaded);
  EXPECT_EQ(summary.failure, "cannot open file");
  EXPECT_TRUE(workspace.load_failed());
}

TEST(WorkspaceTest, ParseErrorsBecomeDiagnosticsAndSummaryCounts) {
  Workspace workspace;
  const core::FileSummary& summary = workspace.load_source(
      "broken.py", "@sys\nclass Broken:\n    @op_initial\n    def f(self:\n");
  EXPECT_TRUE(summary.loaded);  // recovery keeps the file loaded
  EXPECT_GT(summary.parse_errors, 0u);
  EXPECT_TRUE(workspace.load_failed());
  EXPECT_EQ(workspace.file_diag_ranges().size(), 1u);
  const auto [begin, end] = workspace.file_diag_ranges()[0];
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, workspace.load_diag_end());
  EXPECT_GT(end, begin);
}

TEST(WorkspaceTest, DuplicateClassAcrossFilesIsDiagnosedOnReplayToo) {
  Workspace workspace;
  workspace.load_source("a.py", examples::kValveSource);
  // Identical content: the parse memo hits, but add_class still sees the
  // duplicate (spec extraction re-runs against the live registry).
  const core::FileSummary& summary =
      workspace.load_source("b.py", examples::kValveSource);
  EXPECT_EQ(workspace.parse_stats().hits, 1u);
  EXPECT_GT(summary.parse_errors, 0u);
  EXPECT_TRUE(workspace.verifier().diagnostics().has_errors());
}

TEST(WorkspaceTest, UpdateReparsesOnlyTheEditedFile) {
  Workspace workspace;
  workspace.load_source("valve.py", examples::kValveSource);
  workspace.load_source("sector.py", examples::kSectorSource);
  ASSERT_EQ(workspace.parse_stats().misses, 2u);

  std::string edited = examples::kValveSource;
  const auto pos = edited.find("return [\"test\"]");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 15, "return [\"test\", \"clean\"]");
  const UpdateResult update = workspace.update_source("valve.py", edited);

  // The rebuild re-applied both files, but only the edited content parsed
  // for real; sector.py replayed from the memo.
  EXPECT_EQ(workspace.parse_stats().misses, 3u);
  EXPECT_EQ(workspace.parse_stats().hits, 1u);
  // Valve changed, and Sector's key folds Valve's in, so both are in the
  // closure.
  std::vector<std::string> changed = update.changed;
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::string>{"Sector", "Valve"}));
  EXPECT_EQ(update.stale_keys.size(), 2u);
}

TEST(WorkspaceTest, ParseMemoHoldsOnlyRegisteredTexts) {
  // Edit T0 -> T1 -> T2 -> T0: each rebuild drops the parses no file holds,
  // so returning to T0 parses it again instead of answering from a memo
  // that kept every revision.  A text another file still holds stays.
  Workspace workspace;
  const std::string t0 = examples::kValveSource;
  workspace.load_source("valve.py", t0);
  workspace.load_source("sector.py", examples::kSectorSource);
  ASSERT_EQ(workspace.parse_stats().misses, 2u);
  const auto revision = [&](const char* ops) {
    std::string text = t0;
    const auto pos = text.find("return [\"test\"]");
    EXPECT_NE(pos, std::string::npos);
    text.replace(pos, 15, std::string("return [") + ops + "]");
    return text;
  };
  workspace.update_source("valve.py", revision("\"test\", \"clean\""));
  workspace.update_source("valve.py", revision("\"clean\""));
  EXPECT_EQ(workspace.parse_stats().misses, 4u);
  EXPECT_EQ(workspace.parse_stats().hits, 2u);  // sector.py, twice

  workspace.update_source("valve.py", t0);
  EXPECT_EQ(workspace.parse_stats().misses, 5u);  // T0 was dropped
  EXPECT_EQ(workspace.parse_stats().hits, 3u);
  EXPECT_NE(workspace.verifier().find_class("Valve"), nullptr);
}

TEST(WorkspaceTest, CommentOnlyEditChangesNoKeys) {
  Workspace workspace;
  workspace.load_source("valve.py", examples::kValveSource);
  std::string edited = examples::kValveSource;
  const auto pos = edited.find("def test(self):");
  ASSERT_NE(pos, std::string::npos);
  edited.insert(pos + 15, "  # comment");
  const UpdateResult update = workspace.update_source("valve.py", edited);
  // Comments never reach the canonical AST, so the content-addressed keys
  // are unchanged and nothing invalidates.
  EXPECT_TRUE(update.changed.empty());
  EXPECT_TRUE(update.stale_keys.empty());
}

TEST(WorkspaceTest, UpdateOutsideClosureLeavesOtherKeysAlone) {
  Workspace workspace;
  workspace.load_source("valve.py", examples::kValveSource);
  workspace.load_source("sector.py", examples::kSectorSource);
  // Led is unrelated to the valve hierarchy: the canary against
  // over-invalidation.
  workspace.load_source("led.py",
                        "@sys\nclass Led:\n    @op_initial_final\n"
                        "    def blink(self):\n        return [\"blink\"]\n");
  std::string edited_led =
      "@sys\nclass Led:\n    @op_initial_final\n"
      "    def blink(self):\n        return []\n";
  const UpdateResult update = workspace.update_source("led.py", edited_led);
  EXPECT_EQ(update.changed, std::vector<std::string>{"Led"});
  EXPECT_EQ(update.stale_keys.size(), 1u);
}

TEST(WorkspaceTest, RemovedClassReportsItsStaleKey) {
  Workspace workspace;
  workspace.load_source("valve.py", examples::kValveSource);
  const UpdateResult update = workspace.update_source("valve.py", "");
  EXPECT_EQ(update.changed, std::vector<std::string>{"Valve"});
  EXPECT_EQ(update.stale_keys.size(), 1u);
  EXPECT_EQ(workspace.verifier().find_class("Valve"), nullptr);
}

TEST(WorkspaceTest, DependentsClosureFollowsReverseSubsystemEdges) {
  Workspace workspace;
  workspace.load_source("valve.py", examples::kValveSource);
  workspace.load_source("sector.py", examples::kSectorSource);
  workspace.load_source("good.py", examples::kGoodSectorSource);
  std::vector<std::string> closure = workspace.dependents_closure("Valve");
  std::sort(closure.begin(), closure.end());
  EXPECT_EQ(closure,
            (std::vector<std::string>{"GoodSector", "Sector", "Valve"}));
  EXPECT_EQ(workspace.dependents_closure("GoodSector"),
            std::vector<std::string>{"GoodSector"});
}

TEST(WorkspaceTest, DependencyCycleClosureCoversTheWholeScc) {
  // A <-> B subsystem cycle plus an unrelated C: the closure of either
  // cycle member is the whole SCC, and C stays out of it.
  Workspace workspace;
  workspace.load_source("a.py",
                        "@sys([\"b\"])\nclass A:\n"
                        "    def __init__(self):\n        self.b = B()\n"
                        "    @op_initial_final\n    def go(self):\n"
                        "        return []\n");
  workspace.load_source("b.py",
                        "@sys([\"a\"])\nclass B:\n"
                        "    def __init__(self):\n        self.a = A()\n"
                        "    @op_initial_final\n    def go(self):\n"
                        "        return []\n");
  workspace.load_source("c.py",
                        "@sys\nclass C:\n    @op_initial_final\n"
                        "    def go(self):\n        return []\n");
  std::vector<std::string> closure = workspace.dependents_closure("A");
  std::sort(closure.begin(), closure.end());
  EXPECT_EQ(closure, (std::vector<std::string>{"A", "B"}));

  // Editing one member of the SCC changes both keys (cycle markers fold
  // the partner's identity in), and C's key stays put.
  const auto keys_before = workspace.class_keys();
  std::string edited_a =
      "@sys([\"b\"])\nclass A:\n"
      "    def __init__(self):\n        self.b = B()\n"
      "    @op_initial_final\n    def go(self):\n"
      "        return [\"go\"]\n";
  const UpdateResult update = workspace.update_source("a.py", edited_a);
  std::vector<std::string> changed = update.changed;
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(workspace.class_keys().at("C"), keys_before.at("C"));
}

TEST(WorkspaceTest, MissingSubsystemStillYieldsAKeyAndInvalidates) {
  // Sector references Valve, which is absent: the key folds a missing
  // marker, so *adding* Valve later changes Sector's key too.
  Workspace workspace;
  workspace.load_source("sector.py", examples::kSectorSource);
  const auto before = workspace.class_keys();
  ASSERT_EQ(before.count("Sector"), 1u);
  const UpdateResult update =
      workspace.update_source("valve.py", examples::kValveSource);
  std::vector<std::string> changed = update.changed;
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::string>{"Sector", "Valve"}));
}

TEST(WorkspaceTest, RewindDropsVerificationDiagnosticsOnly) {
  Workspace workspace;
  workspace.load_source(
      "broken.py", "@sys\nclass Broken:\n    @op_initial\n    def f(self:\n");
  const std::size_t load_diags =
      workspace.verifier().diagnostics().diagnostics().size();
  workspace.verifier().diagnostics().error({}, "verification-time error");
  workspace.rewind_to_loaded();
  EXPECT_EQ(workspace.verifier().diagnostics().diagnostics().size(),
            load_diags);
}

}  // namespace
}  // namespace shelley::engine
