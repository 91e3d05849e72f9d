// Reproduction of §3.1 / Figure 3: the method-dependency graph of class
// Sector (Listing 3.1) -- entry node per method, exit node per return, arcs
// for the ordering constraints -- rendered as the Shelley model diagram.
#include <cstdio>

#include "ir/inference.hpp"
#include "ir/lowering.hpp"
#include "shelley/automata.hpp"
#include "shelley/graph.hpp"
#include "shelley/verifier.hpp"
#include "viz/dot.hpp"

#include "paper_sources.hpp"

int main() {
  using namespace shelley;

  core::Verifier verifier;
  verifier.add_source(examples::kValveSource);
  verifier.add_source(examples::kSectorSource);

  const core::ClassSpec* sector = verifier.find_class("Sector");
  core::DependencyGraph graph =
      core::DependencyGraph::build(*sector, verifier.diagnostics());

  std::printf("== Method dependency graph of class Sector (Section 3.1) ==\n");
  std::printf("nodes: %zu (4 entries + one exit per return)\n",
              graph.nodes().size());
  for (const core::DependencyNode& node : graph.nodes()) {
    std::printf("  %s %s\n",
                node.type == core::DependencyNode::Type::kEntry ? "entry"
                                                                : "exit ",
                node.label().c_str());
  }
  std::printf("edges: %zu\n", graph.edges().size());
  for (const core::DependencyEdge& edge : graph.edges()) {
    std::printf("  %s -> %s\n", graph.nodes()[edge.from].label().c_str(),
                graph.nodes()[edge.to].label().c_str());
  }

  std::printf("\n== Figure 3: Shelley model of class Sector (DOT) ==\n%s",
              viz::dot_dependency_graph(*sector, graph).c_str());

  // Per-method behavior extraction (Section 3.2) over the subsystem calls.
  std::printf("\n== Inferred method behaviors (infer(p), simplified) ==\n");
  const auto behaviors =
      core::extract_behaviors(*sector, verifier.symbols(),
                              verifier.diagnostics());
  for (const auto& [name, behavior] : behaviors) {
    std::printf("  %-10s p  = %s\n", name.c_str(),
                ir::to_string(behavior.program, verifier.symbols()).c_str());
    std::printf("  %-10s r  = %s\n", "",
                rex::to_string(ir::infer_simplified(behavior.program),
                               verifier.symbols())
                    .c_str());
  }

  const core::Report report = verifier.verify_all();
  std::printf("\nSector verification %s\n",
              report.ok() ? "PASSED" : "FAILED");
  const std::string errors = report.render(verifier.symbols());
  if (!errors.empty()) std::printf("%s", errors.c_str());
  return 0;
}
