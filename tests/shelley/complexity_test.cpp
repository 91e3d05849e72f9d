// Complexity gates that count work instead of timing it, so they answer
// exactly on any machine.
//
// farm-N (N Valves, each driven through `match` in one repeatable
// operation) determinizes a fixed number of automata whatever N is: the
// composite's own usage, its system, its realizable usage and one usage
// per subsystem class -- every Valve field shares the one Valve DFA.  It
// minimizes the system and that Valve DFA.
#include <gtest/gtest.h>

#include <string>

#include "paper_sources.hpp"
#include "shelley/verifier.hpp"
#include "support/metrics.hpp"

namespace shelley::core {
namespace {

std::string farm(std::size_t n) {
  std::string fields;
  std::string init;
  std::string body;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string v = "self.v" + std::to_string(i);
    fields += (i == 0 ? "\"v" : ", \"v") + std::to_string(i) + "\"";
    init += "        " + v + " = Valve()\n";
    body += "        match " + v + ".test():\n";
    body += "            case [\"open\"]:\n";
    body += "                " + v + ".open()\n";
    body += "                " + v + ".close()\n";
    body += "            case [\"clean\"]:\n";
    body += "                " + v + ".clean()\n";
  }
  return "@sys([" + fields + "])\nclass Farm:\n    def __init__(self):\n" +
         init + "    @op_initial_final\n    def run(self):\n" + body +
         "        return [\"run\"]\n";
}

class ComplexityTest : public ::testing::Test {
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

TEST_F(ComplexityTest, FarmSubsetConstructionsDoNotGrowWithN) {
  for (std::size_t n = 1; n <= 64; n *= 2) {
    Verifier verifier;
    verifier.add_source(examples::kValveSource);
    verifier.add_source(farm(n));
    const Report report = verifier.verify_all(1);
    ASSERT_TRUE(report.ok()) << "farm-" << n;
    const ClassReport* farm_report = nullptr;
    for (const ClassReport& cls : report.classes) {
      if (cls.class_name == "Farm") farm_report = &cls;
    }
    ASSERT_NE(farm_report, nullptr) << "farm-" << n;
    EXPECT_EQ(farm_report->stats.determinize_calls, 4u) << "farm-" << n;
    EXPECT_EQ(farm_report->stats.minimize_calls, 2u) << "farm-" << n;
  }
}

}  // namespace
}  // namespace shelley::core
