// The --ltlf-engine / --lint-claims plumbing: each engine choice answers
// claims identically (verdicts AND witnesses), `both` mode aborts loudly on
// a (forced) disagreement, claim lints warn on unsatisfiable and
// trivially-true claims, and the engine choice keys the verification cache.
#include <gtest/gtest.h>

#include "ltlf/eval.hpp"
#include "ltlf/parser.hpp"
#include "shelley/checker.hpp"
#include "shelley/verifier.hpp"

namespace shelley::core {
namespace {

constexpr const char* kValve = R"py(
@claim("G (open -> F close)")
@claim("F open")
@sys
class Valve:
    @op_initial
    def test(self):
        if x:
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]
)py";

constexpr const char* kComposite = R"py(
@sys
class Valve:
    @op_initial
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["open"]

@claim("G (a.open -> F a.close)")
@sys(["a"])
class Controller:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.open()
        self.a.close()
        return []
)py";

CheckResult run_base(Verifier& verifier, LtlfEngine engine) {
  const ClassSpec* spec = verifier.find_class("Valve");
  EXPECT_NE(spec, nullptr);
  DiagnosticEngine sink;
  CheckOptions options;
  options.ltlf_engine = engine;
  UsageAutomaton usage(*spec, verifier.symbols());
  return check_base_claims(*spec, usage, verifier.symbols(), sink, options);
}

TEST(EngineModes, AllEnginesAgreeOnBaseClaims) {
  Verifier verifier;
  verifier.add_source(kValve);
  const CheckResult dfa = run_base(verifier, LtlfEngine::kDfa);
  const CheckResult tableau = run_base(verifier, LtlfEngine::kTableau);
  const CheckResult both = run_base(verifier, LtlfEngine::kBoth);

  // "F open" is violated (the empty usage and test,clean never open);
  // "G (open -> F close)" holds.
  ASSERT_EQ(dfa.claim_errors.size(), 1u);
  ASSERT_EQ(tableau.claim_errors.size(), 1u);
  ASSERT_EQ(both.claim_errors.size(), 1u);
  EXPECT_EQ(dfa.claim_errors[0].formula, "F open");
  EXPECT_EQ(tableau.claim_errors[0].formula, "F open");
  EXPECT_EQ(tableau.claim_errors[0].counterexample,
            dfa.claim_errors[0].counterexample);
  EXPECT_EQ(both.claim_errors[0].counterexample,
            dfa.claim_errors[0].counterexample);
}

TEST(EngineModes, CompositeClaimsAgreeAcrossEngines) {
  for (const LtlfEngine engine :
       {LtlfEngine::kDfa, LtlfEngine::kTableau, LtlfEngine::kBoth}) {
    Verifier verifier;
    verifier.add_source(kComposite);
    verifier.set_check_options(CheckOptions{engine, false});
    const Report report = verifier.verify_all();
    EXPECT_TRUE(report.ok()) << report.render(verifier.symbols());
  }
}

TEST(EngineModes, RenderedReportIsByteIdenticalAcrossEngines) {
  std::string dfa_render;
  std::string tableau_render;
  std::string both_render;
  for (const LtlfEngine engine :
       {LtlfEngine::kDfa, LtlfEngine::kTableau, LtlfEngine::kBoth}) {
    Verifier verifier;
    verifier.add_source(kValve);
    verifier.set_check_options(CheckOptions{engine, false});
    const Report report = verifier.verify_all();
    EXPECT_FALSE(report.ok());
    std::string& out = engine == LtlfEngine::kDfa      ? dfa_render
                       : engine == LtlfEngine::kTableau ? tableau_render
                                                         : both_render;
    out = report.render(verifier.symbols());
  }
  EXPECT_EQ(dfa_render, tableau_render);
  EXPECT_EQ(dfa_render, both_render);
  EXPECT_NE(dfa_render.find("FAIL TO MEET REQUIREMENT"), std::string::npos);
}

TEST(EngineModes, ForcedDisagreementAbortsBothMode) {
  Verifier verifier;
  verifier.add_source(kValve);
  verifier.set_check_options(CheckOptions{LtlfEngine::kBoth, false});
  testing::force_ltlf_disagreement(true);
  EXPECT_THROW((void)verifier.verify_all(), EngineDisagreement);
  // The hook is one-shot: the next run is clean again.
  EXPECT_FALSE(verifier.verify_all().ok());
}

TEST(EngineModes, ForcedDisagreementDoesNotTouchSingleEngineModes) {
  Verifier verifier;
  verifier.add_source(kValve);
  testing::force_ltlf_disagreement(true);
  EXPECT_NO_THROW((void)verifier.verify_all());
  testing::force_ltlf_disagreement(false);
}

TEST(EngineModes, LintFlagsUnsatisfiableClaim) {
  Verifier verifier;
  // One event is never two distinct symbols: F (open & close) is
  // unsatisfiable over any alphabet.
  verifier.add_source(R"py(
@claim("F (open & close)")
@sys
class C:
    @op_initial_final
    def open(self):
        return []

    @op_initial_final
    def close(self):
        return []
)py");
  verifier.set_check_options(CheckOptions{LtlfEngine::kDfa, true});
  const Report report = verifier.verify_all();
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_GE(report.classes[0].lint_findings, 1u);
  bool found = false;
  for (const Diagnostic& diag : verifier.diagnostics().diagnostics()) {
    if (diag.severity == Severity::kWarning &&
        diag.message.find("is unsatisfiable") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineModes, LintFlagsTriviallyTrueClaim) {
  Verifier verifier;
  verifier.add_source(R"py(
@claim("G (open | !open)")
@sys
class C:
    @op_initial_final
    def open(self):
        return []
)py");
  verifier.set_check_options(CheckOptions{LtlfEngine::kDfa, true});
  const Report report = verifier.verify_all();
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_TRUE(report.ok());  // lints are warnings, not errors
  EXPECT_GE(report.classes[0].lint_findings, 1u);
  bool found = false;
  for (const Diagnostic& diag : verifier.diagnostics().diagnostics()) {
    if (diag.severity == Severity::kWarning &&
        diag.message.find("trivially true") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineModes, LintsOffByDefault) {
  Verifier verifier;
  verifier.add_source(R"py(
@claim("F (open & close)")
@sys
class C:
    @op_initial_final
    def open(self):
        return []

    @op_initial_final
    def close(self):
        return []
)py");
  const Report report = verifier.verify_all();
  ASSERT_EQ(report.classes.size(), 1u);
  for (const Diagnostic& diag : verifier.diagnostics().diagnostics()) {
    EXPECT_EQ(diag.message.find("is unsatisfiable"), std::string::npos);
  }
}

TEST(EngineModes, EngineChoiceAndLintFlagKeyTheCache) {
  Verifier verifier;
  verifier.add_source(kValve);
  const ClassSpec* spec = verifier.find_class("Valve");
  ASSERT_NE(spec, nullptr);

  const auto key_default = verifier.cache_key(*spec);
  verifier.set_check_options(CheckOptions{LtlfEngine::kTableau, false});
  const auto key_tableau = verifier.cache_key(*spec);
  verifier.set_check_options(CheckOptions{LtlfEngine::kTableau, true});
  const auto key_linted = verifier.cache_key(*spec);
  verifier.set_check_options(CheckOptions{LtlfEngine::kDfa, false});
  const auto key_back = verifier.cache_key(*spec);

  EXPECT_NE(key_default, key_tableau);
  EXPECT_NE(key_tableau, key_linted);
  EXPECT_NE(key_default, key_linted);
  EXPECT_EQ(key_default, key_back);
}

}  // namespace
}  // namespace shelley::core
