#include "shelley/checker.hpp"

#include <gtest/gtest.h>

#include "ltlf/eval.hpp"
#include "ltlf/parser.hpp"
#include "paper_sources.hpp"
#include "testing.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

class CheckerTest : public ::testing::Test {
 protected:
  void load_(const char* source) {
    const upy::Module module = upy::parse_module(source);
    for (const upy::ClassDef& cls : module.classes) {
      specs_.push_back(extract_class_spec(cls, diagnostics_));
    }
  }
  ClassLookup lookup_() {
    return [this](const std::string& name) -> const ClassSpec* {
      for (const ClassSpec& spec : specs_) {
        if (spec.name == name) return &spec;
      }
      return nullptr;
    };
  }
  const ClassSpec& spec_(std::string_view name) {
    for (const ClassSpec& spec : specs_) {
      if (spec.name == name) return spec;
    }
    throw std::logic_error("unknown spec in test");
  }
  CheckResult check_(std::string_view name) {
    return check_composite(spec_(name), lookup_(), table_, diagnostics_);
  }

  std::deque<ClassSpec> specs_;
  SymbolTable table_;
  DiagnosticEngine diagnostics_;
};

// -- The paper's §2.2 findings, pinned ---------------------------------------

TEST_F(CheckerTest, BadSectorInvalidSubsystemUsageExactlyAsPaper) {
  load_(examples::kValveSource);
  load_(examples::kBadSectorSource);
  const CheckResult result = check_("BadSector");

  ASSERT_EQ(result.subsystem_errors.size(), 1u);
  const SubsystemError& error = result.subsystem_errors[0];
  EXPECT_EQ(error.field, "a");
  EXPECT_EQ(error.class_name, "Valve");
  EXPECT_EQ(to_string(error.counterexample, table_),
            "open_a, a.test, a.open");
  EXPECT_EQ(error.detail, "test, >open< (not final)");
}

TEST_F(CheckerTest, BadSectorClaimFailsWithRealViolation) {
  load_(examples::kValveSource);
  load_(examples::kBadSectorSource);
  const CheckResult result = check_("BadSector");

  ASSERT_EQ(result.claim_errors.size(), 1u);
  EXPECT_EQ(result.claim_errors[0].formula, "(!a.open) W b.open");
  // The witness must actually violate the claim (the paper prints a longer
  // trace; ours is the shortest, which is stronger).
  const ltlf::Formula claim = ltlf::parse("(!a.open) W b.open", table_);
  EXPECT_FALSE(ltlf::eval(claim, result.claim_errors[0].counterexample));
}

TEST_F(CheckerTest, RenderMatchesPaperFormat) {
  load_(examples::kValveSource);
  load_(examples::kBadSectorSource);
  const CheckResult result = check_("BadSector");
  const std::string report = result.render(table_);
  EXPECT_NE(report.find("Error in specification: INVALID SUBSYSTEM USAGE\n"
                        "Counter example: open_a, a.test, a.open\n"
                        "Subsystems errors:\n"
                        "  * Valve 'a': test, >open< (not final)\n"),
            std::string::npos);
  EXPECT_NE(report.find("Error in specification: FAIL TO MEET REQUIREMENT\n"
                        "Formula: (!a.open) W b.open\n"),
            std::string::npos);
}

TEST_F(CheckerTest, GoodSectorPasses) {
  load_(examples::kValveSource);
  load_(examples::kGoodSectorSource);
  const CheckResult result = check_("GoodSector");
  EXPECT_TRUE(result.ok()) << result.render(table_);
  EXPECT_TRUE(result.render(table_).empty());
}

TEST_F(CheckerTest, SectorFromListing31Passes) {
  load_(examples::kValveSource);
  load_(examples::kSectorSource);
  const CheckResult result = check_("Sector");
  EXPECT_TRUE(result.ok()) << result.render(table_);
}

// -- Targeted usage violations -------------------------------------------------

TEST_F(CheckerTest, NotAllowedStepIsDiagnosed) {
  load_(examples::kValveSource);
  load_(R"py(
@sys(["a"])
class OpenTwice:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
)py");
  const CheckResult result = check_("OpenTwice");
  ASSERT_EQ(result.subsystem_errors.size(), 1u);
  EXPECT_NE(result.subsystem_errors[0].detail.find(">open< (not allowed)"),
            std::string::npos);
}

TEST_F(CheckerTest, SkippingTestIsDiagnosed) {
  load_(examples::kValveSource);
  load_(R"py(
@sys(["a"])
class NoTest:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        self.a.open()
        self.a.close()
        return []
)py");
  const CheckResult result = check_("NoTest");
  ASSERT_EQ(result.subsystem_errors.size(), 1u);
  EXPECT_NE(result.subsystem_errors[0].detail.find(">open< (not allowed)"),
            std::string::npos);
}

TEST_F(CheckerTest, UnusedSubsystemIsFine) {
  load_(examples::kValveSource);
  load_(R"py(
@sys(["a", "b"])
class UsesOnlyA:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def go(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
)py");
  EXPECT_TRUE(check_("UsesOnlyA").ok());
}

TEST_F(CheckerTest, UnknownSubsystemClassReportsDiagnostic) {
  load_(R"py(
@sys(["a"])
class Orphan:
    def __init__(self):
        self.a = Mystery()

    @op_initial_final
    def go(self):
        return []
)py");
  const CheckResult result = check_("Orphan");
  EXPECT_TRUE(result.subsystem_errors.empty());
  EXPECT_TRUE(diagnostics_.has_errors());
}

TEST_F(CheckerTest, UnparsableClaimReportsDiagnostic) {
  load_(examples::kValveSource);
  load_(R"py(
@claim("(((")
@sys(["a"])
class BadClaim:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
)py");
  const CheckResult result = check_("BadClaim");
  EXPECT_TRUE(result.claim_errors.empty());
  EXPECT_TRUE(diagnostics_.has_errors());
}

TEST_F(CheckerTest, PassingClaimProducesNoError) {
  load_(examples::kValveSource);
  load_(R"py(
@claim("G (a.open -> F a.close)")
@sys(["a"])
class AlwaysCloses:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
)py");
  EXPECT_TRUE(check_("AlwaysCloses").ok());
}

TEST_F(CheckerTest, ClaimCounterexampleContainsOnlySubsystemEvents) {
  load_(examples::kValveSource);
  load_(examples::kBadSectorSource);
  const CheckResult result = check_("BadSector");
  ASSERT_EQ(result.claim_errors.size(), 1u);
  for (Symbol s : result.claim_errors[0].counterexample) {
    const std::string& name = table_.name(s);
    EXPECT_NE(name.find('.'), std::string::npos)
        << "operation label leaked into claim counterexample: " << name;
  }
}

// -- diagnose_subsystem_usage directly -----------------------------------------

TEST_F(CheckerTest, DiagnoseNotFinal) {
  load_(examples::kValveSource);
  Word projected{table_.intern("a.test"), table_.intern("a.open")};
  EXPECT_EQ(diagnose_subsystem_usage(usage_dfa(spec_("Valve"), table_, "a."),
                                     "a", projected, table_),
            "test, >open< (not final)");
}

TEST_F(CheckerTest, DiagnoseNotAllowed) {
  load_(examples::kValveSource);
  Word projected{table_.intern("a.open")};
  EXPECT_EQ(diagnose_subsystem_usage(usage_dfa(spec_("Valve"), table_, "a."),
                                     "a", projected, table_),
            ">open< (not allowed)");
}

TEST_F(CheckerTest, DiagnoseValidWordRendersPlainly) {
  load_(examples::kValveSource);
  Word projected{table_.intern("a.test"), table_.intern("a.clean")};
  EXPECT_EQ(diagnose_subsystem_usage(usage_dfa(spec_("Valve"), table_, "a."),
                                     "a", projected, table_),
            "test, clean");
}

TEST_F(CheckerTest, DiagnoseUndeclaredOperation) {
  load_(examples::kValveSource);
  Word projected{table_.intern("a.test"), table_.intern("a.explode")};
  EXPECT_EQ(diagnose_subsystem_usage(usage_dfa(spec_("Valve"), table_, "a."),
                                     "a", projected, table_),
            "test, >explode< (undeclared operation)");
}

}  // namespace
}  // namespace shelley::core
