#include "shelley/automata.hpp"

#include <gtest/gtest.h>

#include "fsm/ops.hpp"
#include "paper_sources.hpp"
#include "rex/equivalence.hpp"
#include "rex/parser.hpp"
#include "testing.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

class AutomataTest : public ::testing::Test {
 protected:
  ClassSpec extract_(const char* source, std::size_t index = 0) {
    const upy::Module module = upy::parse_module(source);
    return extract_class_spec(module.classes.at(index), diagnostics_);
  }
  Word word_(std::initializer_list<const char*> names) {
    return testing::word(table_, names);
  }

  SymbolTable table_;
  DiagnosticEngine diagnostics_;
};

// -- usage_nfa ----------------------------------------------------------------

TEST_F(AutomataTest, ValveUsageLanguage) {
  const ClassSpec valve = extract_(examples::kValveSource);
  const fsm::Nfa usage = usage_nfa(valve, table_);

  // Valid complete usages.
  EXPECT_TRUE(usage.accepts({}));  // never using the valve is fine
  EXPECT_TRUE(usage.accepts(word_({"test", "open", "close"})));
  EXPECT_TRUE(usage.accepts(word_({"test", "clean"})));
  EXPECT_TRUE(usage.accepts(
      word_({"test", "open", "close", "test", "clean"})));
  EXPECT_TRUE(usage.accepts(
      word_({"test", "clean", "test", "open", "close"})));

  // Invalid: open is not final -- the valve would stay open.
  EXPECT_FALSE(usage.accepts(word_({"test", "open"})));
  // Invalid: must test before opening.
  EXPECT_FALSE(usage.accepts(word_({"open", "close"})));
  // Invalid: close only follows open.
  EXPECT_FALSE(usage.accepts(word_({"test", "close"})));
  // Invalid: test alone is not final.
  EXPECT_FALSE(usage.accepts(word_({"test"})));
  // Invalid: clean twice in a row.
  EXPECT_FALSE(usage.accepts(word_({"test", "clean", "clean"})));
}

TEST_F(AutomataTest, UsagePrefixQualifiesSymbols) {
  const ClassSpec valve = extract_(examples::kValveSource);
  const fsm::Nfa usage = usage_nfa(valve, table_, "a.");
  EXPECT_TRUE(usage.accepts(word_({"a.test", "a.clean"})));
  EXPECT_FALSE(usage.accepts(word_({"test", "clean"})));
}

TEST_F(AutomataTest, UsageOfMultiInitialClass) {
  const ClassSpec spec = extract_(R"py(
@sys
class C:
    @op_initial_final
    def x(self):
        return ["y"]

    @op_initial_final
    def y(self):
        return ["x"]
)py");
  const fsm::Nfa usage = usage_nfa(spec, table_);
  EXPECT_TRUE(usage.accepts(word_({"x"})));
  EXPECT_TRUE(usage.accepts(word_({"y"})));
  EXPECT_TRUE(usage.accepts(word_({"x", "y", "x"})));
  EXPECT_FALSE(usage.accepts(word_({"x", "x"})));
}

TEST_F(AutomataTest, EmptySuccessorListIsTerminal) {
  const ClassSpec spec = extract_(R"py(
@sys
class C:
    @op_initial_final
    def once(self):
        return []
)py");
  const fsm::Nfa usage = usage_nfa(spec, table_);
  EXPECT_TRUE(usage.accepts(word_({"once"})));
  EXPECT_FALSE(usage.accepts(word_({"once", "once"})));
}

// -- extract_behaviors ---------------------------------------------------------

TEST_F(AutomataTest, BadSectorBehaviors) {
  const ClassSpec sector = extract_(examples::kBadSectorSource);
  const auto behaviors = extract_behaviors(sector, table_, diagnostics_);
  ASSERT_TRUE(behaviors.contains("open_a"));
  ASSERT_TRUE(behaviors.contains("open_b"));

  // open_a: a.test then either a.open (exit 0) or a.clean (exit 1).
  const OperationBehavior& open_a = behaviors.at("open_a");
  EXPECT_TRUE(rex::equivalent(
      ir::infer_simplified(open_a.program),
      rex::parse("a.test (a.open + a.clean)", table_)));
  EXPECT_FALSE(open_a.falls_off_end);
  ASSERT_EQ(open_a.behavior.returned.size(), 2u);

  // open_b closes both valves on the open path.
  const OperationBehavior& open_b = behaviors.at("open_b");
  EXPECT_TRUE(rex::equivalent(
      ir::infer_simplified(open_b.program),
      rex::parse("b.test (b.open a.close b.close + b.clean a.close)",
                 table_)));
}

TEST_F(AutomataTest, BehaviorOfBaseClassOpsIsEpsilon) {
  const ClassSpec valve = extract_(examples::kValveSource);
  const auto behaviors = extract_behaviors(valve, table_, diagnostics_);
  // No subsystems tracked: every body behavior is ε.
  for (const auto& [name, behavior] : behaviors) {
    EXPECT_TRUE(
        rex::equivalent(ir::infer_simplified(behavior.program),
                        rex::epsilon()))
        << name;
  }
}

TEST_F(AutomataTest, FallsOffEndDetected) {
  const ClassSpec spec = extract_(R"py(
@sys(["a"])
class C:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def m(self):
        if x:
            return []
        self.a.test()
)py");
  const auto behaviors = extract_behaviors(spec, table_, diagnostics_);
  EXPECT_TRUE(behaviors.at("m").falls_off_end);
}

// -- build_system_model --------------------------------------------------------

TEST_F(AutomataTest, BadSectorSystemLanguage) {
  const ClassSpec sector = extract_(examples::kBadSectorSource);
  const auto behaviors = extract_behaviors(sector, table_, diagnostics_);
  const SystemModel model =
      build_system_model(sector, behaviors, table_, diagnostics_);

  EXPECT_EQ(model.op_symbols.size(), 2u);   // open_a, open_b
  EXPECT_EQ(model.event_symbols.size(), 8u);  // 4 calls per valve

  // The offending complete behavior from the paper's Figure 2.
  EXPECT_TRUE(model.nfa.accepts(word_({"open_a", "a.test", "a.open"})));
  // The full good run.
  EXPECT_TRUE(model.nfa.accepts(
      word_({"open_a", "a.test", "a.open", "open_b", "b.test", "b.open",
             "a.close", "b.close"})));
  // The failure path of open_a.
  EXPECT_TRUE(model.nfa.accepts(word_({"open_a", "a.test", "a.clean"})));
  // Cannot continue after the empty-successor exit.
  EXPECT_FALSE(model.nfa.accepts(
      word_({"open_a", "a.test", "a.clean", "open_b", "b.test", "b.clean",
             "a.close"})));
  // Operations interleave with their own body events only.
  EXPECT_FALSE(model.nfa.accepts(word_({"open_a", "b.test", "a.open"})));
  // The empty usage is a valid (vacuous) behavior.
  EXPECT_TRUE(model.nfa.accepts({}));
}

TEST_F(AutomataTest, SystemModelRoutesExitsToDeclaredSuccessors) {
  const ClassSpec sector = extract_(examples::kBadSectorSource);
  const auto behaviors = extract_behaviors(sector, table_, diagnostics_);
  const SystemModel model =
      build_system_model(sector, behaviors, table_, diagnostics_);
  // Exit 0 of open_a (the a.open path) allows open_b...
  EXPECT_TRUE(model.nfa.accepts(
      word_({"open_a", "a.test", "a.open", "open_b", "b.test", "b.clean",
             "a.close"})));
  // ...but exit 1 (the a.clean path) does not (returns []).
  EXPECT_FALSE(model.nfa.accepts(
      word_({"open_a", "a.test", "a.clean", "open_b", "b.test", "b.clean",
             "a.close"})));
}

TEST_F(AutomataTest, FallOffEndGetsImplicitExitWithWarning) {
  const ClassSpec spec = extract_(R"py(
@sys(["a"])
class C:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def m(self):
        if x:
            return ["m"]
        self.a.test()
)py");
  const auto behaviors = extract_behaviors(spec, table_, diagnostics_);
  const std::size_t warnings_before = diagnostics_.diagnostics().size();
  const SystemModel model =
      build_system_model(spec, behaviors, table_, diagnostics_);
  EXPECT_GT(diagnostics_.diagnostics().size(), warnings_before);
  // The fall-off path (m; a.test) is a complete behavior with no successor.
  EXPECT_TRUE(model.nfa.accepts(word_({"m", "a.test"})));
  EXPECT_FALSE(model.nfa.accepts(word_({"m", "a.test", "m"})));
  // The returning path allows repetition.
  EXPECT_TRUE(model.nfa.accepts(word_({"m", "m", "a.test"})));
}

TEST_F(AutomataTest, FullAlphabetIsSortedAndDeduplicated) {
  const ClassSpec sector = extract_(examples::kBadSectorSource);
  const auto behaviors = extract_behaviors(sector, table_, diagnostics_);
  const SystemModel model =
      build_system_model(sector, behaviors, table_, diagnostics_);
  const auto alphabet = model.full_alphabet();
  EXPECT_EQ(alphabet.size(), 10u);
  EXPECT_TRUE(std::is_sorted(alphabet.begin(), alphabet.end()));
}

}  // namespace
}  // namespace shelley::core
