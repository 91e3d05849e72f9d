#include "shelley/graph.hpp"

#include <map>
#include <unordered_map>
#include <unordered_set>

namespace shelley::core {

std::string DependencyNode::label() const {
  if (type == Type::kEntry) return operation;
  return operation + "/exit" + std::to_string(exit_id);
}

DependencyGraph DependencyGraph::build(const ClassSpec& spec,
                                       DiagnosticEngine& diagnostics) {
  DependencyGraph graph;
  std::map<std::string, std::size_t> entries;
  std::map<std::pair<std::string, std::size_t>, std::size_t> exits;

  for (const Operation& op : spec.operations) {
    entries[op.name] = graph.nodes_.size();
    graph.nodes_.push_back(
        DependencyNode{DependencyNode::Type::kEntry, op.name, 0});
    for (const ExitPoint& exit : op.exits) {
      exits[{op.name, exit.id}] = graph.nodes_.size();
      graph.nodes_.push_back(
          DependencyNode{DependencyNode::Type::kExit, op.name, exit.id});
    }
  }

  for (const Operation& op : spec.operations) {
    const std::size_t entry = entries.at(op.name);
    for (const ExitPoint& exit : op.exits) {
      const std::size_t exit_node = exits.at({op.name, exit.id});
      graph.edges_.push_back(DependencyEdge{entry, exit_node});
      for (const std::string& successor : exit.successors) {
        const auto it = entries.find(successor);
        if (it == entries.end()) {
          diagnostics.error(exit.loc,
                            "class '" + spec.name + "', operation '" +
                                op.name + "': return names successor '" +
                                successor +
                                "' which is not an operation of this class");
          continue;
        }
        graph.edges_.push_back(DependencyEdge{exit_node, it->second});
      }
    }
  }
  return graph;
}

std::size_t DependencyGraph::entry_of(std::string_view operation) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].type == DependencyNode::Type::kEntry &&
        nodes_[i].operation == operation) {
      return i;
    }
  }
  return npos;
}

std::vector<std::size_t> DependencyGraph::exits_of(
    std::string_view operation) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].type == DependencyNode::Type::kExit &&
        nodes_[i].operation == operation) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::string> DependencyGraph::reachable_operations(
    const ClassSpec& spec) const {
  // Successor lists in CSR form: node n's successors are
  // targets[offsets[n] .. offsets[n + 1]).  One counting pass over the
  // edge list sizes the rows and a second fills them, so the search below
  // is O(V + E).
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const DependencyEdge& edge : edges_) ++offsets[edge.from + 1];
  for (std::size_t node = 0; node < n; ++node) {
    offsets[node + 1] += offsets[node];
  }
  std::vector<std::size_t> targets(edges_.size());
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (const DependencyEdge& edge : edges_) {
    targets[fill[edge.from]++] = edge.to;
  }

  // entry_of resolves a name to its first entry node; index those once.
  std::unordered_map<std::string_view, std::size_t> first_entry;
  for (std::size_t node = 0; node < n; ++node) {
    if (nodes_[node].type == DependencyNode::Type::kEntry) {
      first_entry.emplace(nodes_[node].operation, node);
    }
  }

  std::vector<bool> visited(n, false);
  std::vector<std::size_t> work;
  for (const std::string& op : spec.initial_operations()) {
    const auto it = first_entry.find(op);
    if (it != first_entry.end() && !visited[it->second]) {
      visited[it->second] = true;
      work.push_back(it->second);
    }
  }
  while (!work.empty()) {
    const std::size_t node = work.back();
    work.pop_back();
    for (std::size_t i = offsets[node]; i < offsets[node + 1]; ++i) {
      if (!visited[targets[i]]) {
        visited[targets[i]] = true;
        work.push_back(targets[i]);
      }
    }
  }
  // Emitted in node-index order, so the search order above is irrelevant.
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  for (std::size_t node = 0; node < n; ++node) {
    if (visited[node] && nodes_[node].type == DependencyNode::Type::kEntry &&
        seen.insert(nodes_[node].operation).second) {
      out.push_back(nodes_[node].operation);
    }
  }
  return out;
}

}  // namespace shelley::core
