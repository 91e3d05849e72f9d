#include "shelley/verifier.hpp"

#include <gtest/gtest.h>

#include <map>

#include "paper_sources.hpp"
#include "support/guard.hpp"
#include "support/metrics.hpp"

namespace shelley::core {
namespace {

TEST(VerifierTest, ValveAloneVerifies) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  const Report report = verifier.verify_all();
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.classes[0].class_name, "Valve");
  EXPECT_FALSE(report.classes[0].is_composite);
}

TEST(VerifierTest, BadSectorEndToEnd) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  const Report report = verifier.verify_all();
  ASSERT_EQ(report.classes.size(), 2u);
  EXPECT_FALSE(report.ok());
  // Valve itself is fine; BadSector carries the errors.
  EXPECT_TRUE(report.classes[0].ok());
  EXPECT_FALSE(report.classes[1].ok());
  EXPECT_EQ(report.classes[1].check.subsystem_errors.size(), 1u);
  EXPECT_EQ(report.classes[1].check.claim_errors.size(), 1u);

  const std::string rendered = report.render(verifier.symbols());
  EXPECT_NE(rendered.find("INVALID SUBSYSTEM USAGE"), std::string::npos);
  EXPECT_NE(rendered.find("FAIL TO MEET REQUIREMENT"), std::string::npos);
}

TEST(VerifierTest, GoodSectorEndToEnd) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kGoodSectorSource);
  const Report report = verifier.verify_all();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.render(verifier.symbols()).empty());
}

TEST(VerifierTest, VerifySingleClassByName) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  const ClassReport report = verifier.verify_class("BadSector");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.is_composite);
}

TEST(VerifierTest, VerifyUnknownClassReportsDiagnostic) {
  Verifier verifier;
  const ClassReport report = verifier.verify_class("Ghost");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(verifier.diagnostics().has_errors());
}

TEST(VerifierTest, DuplicateClassIsError) {
  Verifier verifier;
  verifier.add_source("@sys\nclass C:\n    @op_initial_final\n"
                      "    def m(self):\n        return []\n");
  verifier.add_source("@sys\nclass C:\n    @op_initial_final\n"
                      "    def m(self):\n        return []\n");
  EXPECT_TRUE(verifier.diagnostics().has_errors());
  EXPECT_EQ(verifier.classes().size(), 1u);
}

TEST(VerifierTest, SyntaxErrorsPropagateAsParseError) {
  Verifier verifier;
  EXPECT_THROW(verifier.add_source("class C\n    pass\n"), ParseError);
}

TEST(VerifierTest, NonSystemClassesAreRegisteredButNotVerified) {
  Verifier verifier;
  verifier.add_source("class Helper:\n    pass\n");
  verifier.add_source(examples::kValveSource);
  const Report report = verifier.verify_all();
  EXPECT_EQ(report.classes.size(), 1u);  // only Valve
  EXPECT_NE(verifier.find_class("Helper"), nullptr);
}

TEST(VerifierTest, FindClass) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  EXPECT_NE(verifier.find_class("Valve"), nullptr);
  EXPECT_EQ(verifier.find_class("Nope"), nullptr);
}

TEST(VerifierTest, InvocationErrorsCountTowardsFailure) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(R"py(
@sys(["a"])
class BadCall:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        self.a.explode()
        return []
)py");
  const Report report = verifier.verify_all();
  EXPECT_FALSE(report.ok());
  const ClassReport& bad = report.classes.back();
  EXPECT_GE(bad.invocation_errors, 1u);
}

TEST(VerifierTest, ThreeLevelHierarchyVerifies) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kGoodSectorSource);
  verifier.add_source(R"py(
@sys(["s"])
class Plant:
    def __init__(self):
        self.s = GoodSector()

    @op_initial_final
    def run(self):
        match self.s.open_b():
            case ["open_a"]:
                self.s.open_a()
                return ["run"]
            case ["fail"]:
                self.s.fail()
                return ["run"]
)py");
  const Report report = verifier.verify_all();
  EXPECT_TRUE(report.ok()) << report.render(verifier.symbols())
                           << verifier.diagnostics().render();
}

// One verified class builds one usage automaton: the completability lint's
// subset construction is the one the claim check minimizes and the one the
// realizability check includes against.  The counts are subset
// constructions per class.
class SharedUsageAutomatonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    support::metrics::set_enabled(true);
    support::metrics::reset();
  }
  void TearDown() override {
    support::metrics::set_enabled(false);
    support::metrics::reset();
  }
};

TEST_F(SharedUsageAutomatonTest, BaseClassWithClaimsDeterminizesOnce) {
  Verifier verifier;
  verifier.add_source(R"py(
@claim("G (open -> F close)")
@sys
class Lid:
    @op_initial
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["open"]
)py");
  const Report report = verifier.verify_all(1);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.classes[0].stats.determinize_calls, 1u);
  EXPECT_EQ(report.classes[0].stats.minimize_calls, 1u);
  EXPECT_EQ(support::metrics::counter("fsm.determinize.calls").value(), 1u);
}

TEST_F(SharedUsageAutomatonTest, CompositesDeterminizeTheirUsageOnce) {
  Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kBadSectorSource);
  verifier.add_source(examples::kSectorSource);
  verifier.add_source(examples::kGoodSectorSource);
  const Report report = verifier.verify_all(1);
  // Per composite: its own usage (shared by the completability lint and
  // the realizability check), the system, the realizable usage, one usage
  // per subsystem class (both Valve fields share it, and a failing
  // field's diagnosis walks it), and the event projection when it has a
  // claim.
  const std::map<std::string, std::uint64_t> expected = {
      {"Valve", 1},      // its usage, for the completability lint
      {"BadSector", 5},  // 1 + 1 + 1 + 1 + 1 (subsystem 'a' fails)
      {"Sector", 4},     // 1 + 1 + 1 + 1
      {"GoodSector", 5}, // 1 + 1 + 1 + 1 + 1
  };
  ASSERT_EQ(report.classes.size(), expected.size());
  std::uint64_t total = 0;
  for (const ClassReport& cls : report.classes) {
    EXPECT_EQ(cls.stats.determinize_calls, expected.at(cls.class_name))
        << cls.class_name;
    total += cls.stats.determinize_calls;
  }
  EXPECT_EQ(support::metrics::counter("fsm.determinize.calls").value(),
            total);
}

// Sharing must not move the subset construction ahead of the cheap lints:
// when it trips the state budget, the reachability finding is already out
// and the abort comes after it.
TEST(VerifierTest, StateBudgetTripStillFollowsTheCheapLints) {
  Verifier verifier;
  verifier.add_source(R"py(
@sys
class Lamp:
    @op_initial_final
    def on(self):
        return ["on"]

    @op_final
    def ghost(self):
        return []
)py");
  support::guard::Limits limits;
  limits.max_states = 1;
  Report report;
  {
    const support::guard::ScopedLimits scoped(limits);
    report = verifier.verify_all(1);
  }
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes[0].resource_errors, 1u);
  const auto& diagnostics = verifier.diagnostics().diagnostics();
  ASSERT_EQ(diagnostics.size(), 2u) << verifier.diagnostics().render();
  EXPECT_EQ(diagnostics[0].severity, Severity::kWarning);
  EXPECT_NE(diagnostics[0].message.find("'ghost' is unreachable"),
            std::string::npos);
  EXPECT_EQ(diagnostics[1].severity, Severity::kError);
  EXPECT_NE(diagnostics[1].message.find("verification of 'Lamp' aborted"),
            std::string::npos);
  EXPECT_NE(diagnostics[1].message.find("determinization"),
            std::string::npos);
}

}  // namespace
}  // namespace shelley::core
