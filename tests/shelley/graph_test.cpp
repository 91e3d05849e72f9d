#include "shelley/graph.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <set>

#include "paper_sources.hpp"
#include "upy/parser.hpp"

namespace shelley::core {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  ClassSpec extract_(const char* source, std::size_t index = 0) {
    const upy::Module module = upy::parse_module(source);
    return extract_class_spec(module.classes.at(index), diagnostics_);
  }
  DiagnosticEngine diagnostics_;
};

// Section 3.1 spells out the graph for Listing 3.1 (class Sector) in full:
// 4 entry nodes; open_a has 2 exit nodes; exits link to the entries of the
// methods they return.
TEST_F(GraphTest, SectorGraphMatchesSection31) {
  const ClassSpec spec = extract_(examples::kSectorSource);
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_FALSE(diagnostics_.has_errors());

  // 4 entries + exits: open_a 2, clean_a 1, close_a 1, open_b 2 = 10 nodes.
  EXPECT_EQ(graph.nodes().size(), 10u);
  std::size_t entries = 0;
  for (const DependencyNode& node : graph.nodes()) {
    if (node.type == DependencyNode::Type::kEntry) ++entries;
  }
  EXPECT_EQ(entries, 4u);

  // Edges: entry->exit one per exit (6) plus exit->entry per successor:
  // open_a/0 -> close_a, open_b (2); open_a/1 -> clean_a (1);
  // clean_a/0 -> open_a (1); close_a/0 -> open_a (1); open_b exits: none.
  EXPECT_EQ(graph.edges().size(), 6u + 5u);

  // Exit node (A) of open_a links to close_a and open_b, exactly as in the
  // paper's §3.1 walkthrough.
  const std::size_t exit_a = graph.exits_of("open_a").at(0);
  const std::size_t close_entry = graph.entry_of("close_a");
  const std::size_t open_b_entry = graph.entry_of("open_b");
  bool links_close = false;
  bool links_open_b = false;
  for (const DependencyEdge& edge : graph.edges()) {
    if (edge.from == exit_a && edge.to == close_entry) links_close = true;
    if (edge.from == exit_a && edge.to == open_b_entry) links_open_b = true;
  }
  EXPECT_TRUE(links_close);
  EXPECT_TRUE(links_open_b);
}

TEST_F(GraphTest, SingleEntryNodePerMethod) {
  const ClassSpec spec = extract_(examples::kValveSource);
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  for (const Operation& op : spec.operations) {
    EXPECT_NE(graph.entry_of(op.name), DependencyGraph::npos);
    EXPECT_EQ(graph.exits_of(op.name).size(), op.exits.size());
  }
}

TEST_F(GraphTest, UnknownSuccessorReportsError) {
  const ClassSpec spec = extract_(R"py(
@sys
class C:
    @op_initial_final
    def m(self):
        return ["nonexistent"]
)py");
  DependencyGraph::build(spec, diagnostics_);
  EXPECT_TRUE(diagnostics_.has_errors());
}

TEST_F(GraphTest, ReachableOperationsFromInitial) {
  const ClassSpec spec = extract_(examples::kValveSource);
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  const auto reachable = graph.reachable_operations(spec);
  EXPECT_EQ(reachable.size(), 4u);  // all valve ops are reachable
}

TEST_F(GraphTest, UnreachableOperationIsNotListed) {
  const ClassSpec spec = extract_(R"py(
@sys
class C:
    @op_initial_final
    def m(self):
        return ["m"]

    @op_final
    def orphan(self):
        return []
)py");
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  const auto reachable = graph.reachable_operations(spec);
  EXPECT_EQ(reachable, (std::vector<std::string>{"m"}));
}

// The graph arcs can form cycles (Valve's test -> open -> close -> test);
// every traversal below must terminate and count each operation once.
TEST_F(GraphTest, OperationCycleTerminatesAndReachesAllMembers) {
  const ClassSpec spec = extract_(R"py(
@sys
class Ring:
    @op_initial
    def a(self):
        return ["b"]

    @op
    def b(self):
        return ["c"]

    @op_final
    def c(self):
        return ["a"]
)py");
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_FALSE(diagnostics_.has_errors());
  const auto reachable = graph.reachable_operations(spec);
  EXPECT_EQ(reachable.size(), 3u);
}

TEST_F(GraphTest, SelfLoopIsASingleEdgePair) {
  const ClassSpec spec = extract_(R"py(
@sys
class Loop:
    @op_initial_final
    def m(self):
        return ["m"]
)py");
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_FALSE(diagnostics_.has_errors());
  // entry -> exit, exit -> entry: the tightest possible cycle.
  EXPECT_EQ(graph.nodes().size(), 2u);
  EXPECT_EQ(graph.edges().size(), 2u);
  EXPECT_EQ(graph.reachable_operations(spec),
            std::vector<std::string>{"m"});
}

// A missing successor drops only its own arc: the graph keeps the other
// edges, so one bad return does not disconnect the class (mirrors the
// engine's per-file fault isolation).
TEST_F(GraphTest, MissingSuccessorKeepsTheRemainingEdges) {
  const ClassSpec spec = extract_(R"py(
@sys
class C:
    @op_initial_final
    def m(self):
        return ["nonexistent", "n"]

    @op_final
    def n(self):
        return []
)py");
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_TRUE(diagnostics_.has_errors());
  // entry(m) -> exit(m), exit(m) -> entry(n), entry(n) -> exit(n); the
  // arc to the unknown successor is skipped, not fabricated.
  EXPECT_EQ(graph.edges().size(), 3u);
  const auto reachable = graph.reachable_operations(spec);
  EXPECT_EQ(reachable, (std::vector<std::string>{"m", "n"}));
}

TEST_F(GraphTest, EntryOfUnknownOperationIsNpos) {
  const ClassSpec spec = extract_(examples::kValveSource);
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_EQ(graph.entry_of("nonexistent"), DependencyGraph::npos);
  EXPECT_TRUE(graph.exits_of("nonexistent").empty());
}

TEST_F(GraphTest, NodeLabels) {
  const ClassSpec spec = extract_(examples::kValveSource);
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics_);
  EXPECT_EQ(graph.nodes()[graph.entry_of("test")].label(), "test");
  EXPECT_EQ(graph.nodes()[graph.exits_of("test")[1]].label(), "test/exit1");
}

// -- Exactness oracle for reachable_operations --------------------------------

/// The breadth-first search reachable_operations ran before it walked CSR
/// successor rows: every dequeued node scans the whole edge list, O(V·E).
/// Kept as the reference the linear search must match exactly.
std::vector<std::string> reachable_by_edge_scan(const DependencyGraph& graph,
                                                const ClassSpec& spec) {
  std::set<std::size_t> visited;
  std::deque<std::size_t> work;
  for (const std::string& op : spec.initial_operations()) {
    const std::size_t entry = graph.entry_of(op);
    if (entry != DependencyGraph::npos && visited.insert(entry).second) {
      work.push_back(entry);
    }
  }
  while (!work.empty()) {
    const std::size_t node = work.front();
    work.pop_front();
    for (const DependencyEdge& edge : graph.edges()) {
      if (edge.from == node && visited.insert(edge.to).second) {
        work.push_back(edge.to);
      }
    }
  }
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (std::size_t node : visited) {
    if (graph.nodes()[node].type == DependencyNode::Type::kEntry &&
        seen.insert(graph.nodes()[node].operation).second) {
      out.push_back(graph.nodes()[node].operation);
    }
  }
  return out;
}

/// A random spec over a small name pool, so operation names repeat; some
/// successors name no operation, and several operations may be initial.
ClassSpec random_spec(std::mt19937_64& rng) {
  ClassSpec spec;
  spec.name = "Random";
  const std::size_t ops = 1 + rng() % 24;
  const std::size_t pool = 1 + rng() % (ops + 2);
  const auto name = [&] { return "m" + std::to_string(rng() % pool); };
  for (std::size_t i = 0; i < ops; ++i) {
    Operation op;
    op.name = name();
    op.initial = rng() % 4 == 0;
    op.final = rng() % 2 == 0;
    const std::size_t exits = rng() % 4;
    for (std::size_t e = 0; e < exits; ++e) {
      ExitPoint exit;
      exit.id = e;
      const std::size_t successors = rng() % 4;
      for (std::size_t k = 0; k < successors; ++k) {
        exit.successors.push_back(rng() % 6 == 0 ? "ghost" : name());
      }
      op.exits.push_back(std::move(exit));
    }
    spec.operations.push_back(std::move(op));
  }
  return spec;
}

TEST(GraphOracleTest, LinearSearchMatchesEdgeScanOnRandomSpecs) {
  std::size_t duplicates = 0;
  std::size_t unresolved = 0;
  std::size_t multi_initial = 0;
  for (std::uint64_t round = 0; round < 2000; ++round) {
    std::mt19937_64 rng(round);
    const ClassSpec spec = random_spec(rng);
    DiagnosticEngine diagnostics;
    const DependencyGraph graph = DependencyGraph::build(spec, diagnostics);
    EXPECT_EQ(graph.reachable_operations(spec),
              reachable_by_edge_scan(graph, spec))
        << "round " << round;

    std::set<std::string> names;
    for (const Operation& op : spec.operations) names.insert(op.name);
    if (names.size() < spec.operations.size()) ++duplicates;
    if (diagnostics.has_errors()) ++unresolved;
    if (spec.initial_operations().size() > 1) ++multi_initial;
  }
  // The generator must actually produce the shapes the oracle is for.
  EXPECT_GT(duplicates, 100u);
  EXPECT_GT(unresolved, 100u);
  EXPECT_GT(multi_initial, 100u);
}

TEST(GraphOracleTest, LinearSearchMatchesEdgeScanOnAWideRing) {
  // 200 operations with 8 exits each, exit e of op i naming op i+1+e: the
  // shape on which the edge scan was quadratic.
  constexpr std::size_t kOps = 200;
  constexpr std::size_t kExits = 8;
  ClassSpec spec;
  spec.name = "Ring";
  for (std::size_t i = 0; i < kOps; ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.initial = i == 0;
    op.final = true;
    for (std::size_t e = 0; e < kExits; ++e) {
      ExitPoint exit;
      exit.id = e;
      exit.successors.push_back("op" + std::to_string((i + 1 + e) % kOps));
      op.exits.push_back(std::move(exit));
    }
    spec.operations.push_back(std::move(op));
  }
  DiagnosticEngine diagnostics;
  const DependencyGraph graph = DependencyGraph::build(spec, diagnostics);
  EXPECT_FALSE(diagnostics.has_errors());
  EXPECT_EQ(graph.nodes().size(), kOps * (1 + kExits));
  const auto reachable = graph.reachable_operations(spec);
  EXPECT_EQ(reachable.size(), kOps);
  EXPECT_EQ(reachable, reachable_by_edge_scan(graph, spec));
}

}  // namespace
}  // namespace shelley::core
