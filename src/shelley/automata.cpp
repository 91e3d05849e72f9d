#include "shelley/automata.hpp"

#include <algorithm>

#include "fsm/ops.hpp"
#include "fsm/thompson.hpp"
#include "ir/lowering.hpp"
#include "rex/derivative.hpp"
#include "support/trace.hpp"

namespace shelley::core {

fsm::Nfa usage_nfa(const ClassSpec& spec, SymbolTable& table,
                   std::string_view prefix) {
  support::trace::Span span("shelley.usage_nfa");
  span.arg("class", spec.name);
  fsm::Nfa nfa;
  const fsm::StateId fresh = nfa.add_state();
  nfa.mark_initial(fresh);
  nfa.mark_accepting(fresh);  // never using the instance is valid

  // One state per exit point, one symbol per operation.
  std::map<std::string, Symbol> symbols;
  std::map<std::string, std::vector<fsm::StateId>> exit_states;
  for (const Operation& op : spec.operations) {
    symbols[op.name] = table.intern(std::string(prefix) + op.name);
    auto& states = exit_states[op.name];
    for (std::size_t i = 0; i < op.exits.size(); ++i) {
      const fsm::StateId state = nfa.add_state();
      states.push_back(state);
      if (op.final) nfa.mark_accepting(state);
    }
  }

  const auto connect = [&](fsm::StateId from, const std::string& op_name) {
    const auto it = exit_states.find(op_name);
    if (it == exit_states.end()) return;  // unresolved successor (reported
                                          // by the dependency-graph pass)
    for (fsm::StateId exit : it->second) {
      nfa.add_transition(from, symbols.at(op_name), exit);
    }
  };

  for (const Operation& op : spec.operations) {
    if (op.initial) connect(fresh, op.name);
  }
  for (const Operation& op : spec.operations) {
    for (std::size_t i = 0; i < op.exits.size(); ++i) {
      const fsm::StateId from = exit_states.at(op.name)[i];
      for (const std::string& successor : op.exits[i].successors) {
        connect(from, successor);
      }
    }
  }
  return nfa;
}

fsm::Dfa usage_dfa(const ClassSpec& spec, SymbolTable& table,
                   std::string_view prefix) {
  return fsm::minimize(fsm::determinize(usage_nfa(spec, table, prefix)));
}

const fsm::Nfa& UsageAutomaton::nfa() {
  if (!nfa_) nfa_ = usage_nfa(spec_, table_);
  return *nfa_;
}

const fsm::Dfa& UsageAutomaton::subsets() {
  if (!subsets_) subsets_ = fsm::determinize(nfa());
  return *subsets_;
}

std::map<std::string, OperationBehavior> extract_behaviors(
    const ClassSpec& spec, SymbolTable& table,
    DiagnosticEngine& diagnostics) {
  support::trace::Span span("shelley.extract_behaviors");
  span.arg("class", spec.name);
  ir::LoweringContext context;
  for (const SubsystemDecl& subsystem : spec.subsystems) {
    context.tracked_fields.insert(subsystem.field);
  }
  context.symbols = &table;
  context.diagnostics = &diagnostics;

  std::map<std::string, OperationBehavior> out;
  for (const Operation& op : spec.operations) {
    support::trace::Span op_span("shelley.operation");
    op_span.arg("op", op.name);
    std::uint32_t next_return_id = 0;
    context.next_return_id = &next_return_id;
    OperationBehavior entry;
    {
      support::trace::Span lower_span("ir.lower");
      entry.program = ir::lower_block(op.body, context);
    }
    {
      support::trace::Span infer_span("ir.infer");
      entry.behavior = ir::analyze(entry.program);
    }
    entry.falls_off_end =
        !rex::is_empty_language(rex::simplify(entry.behavior.ongoing));
    out.emplace(op.name, std::move(entry));
  }
  return out;
}

std::vector<Symbol> SystemModel::full_alphabet() const {
  std::vector<Symbol> out = op_symbols;
  out.insert(out.end(), event_symbols.begin(), event_symbols.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SystemModel build_system_model(
    const ClassSpec& spec,
    const std::map<std::string, OperationBehavior>& behaviors,
    SymbolTable& table, DiagnosticEngine& diagnostics) {
  support::trace::Span span("shelley.build_system_model");
  span.arg("class", spec.name);
  SystemModel model;
  fsm::Nfa& nfa = model.nfa;

  const fsm::StateId fresh = nfa.add_state();
  nfa.mark_initial(fresh);
  nfa.mark_accepting(fresh);

  std::map<std::string, Symbol> op_symbols;
  std::map<std::string, fsm::StateId> entries;
  // Exit states by (operation, exit id); implicit fall-off exits keyed by
  // the operation with id = npos.
  std::map<std::string, std::map<std::size_t, fsm::StateId>> exits;
  constexpr std::size_t kImplicitExit = static_cast<std::size_t>(-1);
  // The operations as their bodies realize them: per name, the exits its
  // entry reaches (a redefinition replaces both), with the successors the
  // wiring loop gives their states.
  std::map<std::string, Operation> realized;

  std::set<Symbol> events;
  for (const Operation& op : spec.operations) {
    const Symbol symbol = table.intern(op.name);
    op_symbols[op.name] = symbol;
    model.op_symbols.push_back(symbol);

    const auto it = behaviors.find(op.name);
    if (it == behaviors.end()) continue;
    const OperationBehavior& behavior = it->second;

    const fsm::StateId entry = nfa.add_state();
    entries[op.name] = entry;
    Operation& reached = realized[op.name];
    reached.name = op.name;
    reached.initial = reached.initial || op.initial;
    reached.final = op.final;
    reached.exits.clear();
    // An exit state reached from the entry through `regex`'s fragment.
    const auto add_exit = [&](std::size_t id, const rex::Regex& regex) {
      const fsm::StateId exit_state = nfa.add_state();
      exits[op.name][id] = exit_state;
      reached.exits.push_back(ExitPoint{id, {}, {}});
      if (op.final) nfa.mark_accepting(exit_state);
      const auto [frag_entry, frag_exit] = fsm::add_fragment(nfa, regex);
      nfa.add_epsilon(entry, frag_entry);
      nfa.add_epsilon(frag_exit, exit_state);
      for (Symbol event : rex::alphabet(regex)) events.insert(event);
    };

    // Route each returned behavior to its exit point's state.
    for (const ExitPoint& exit : op.exits) {
      rex::Regex combined = rex::empty();
      for (const ir::ReturnedBehavior& returned : behavior.behavior.returned) {
        if (returned.exit_id == exit.id) {
          combined = rex::smart_alt(combined, rex::simplify(returned.regex));
        }
      }
      // An empty behavior means no execution path reaches this return (e.g.
      // the return was undecodable or dead code); the exit is unreachable.
      if (!rex::is_empty_language(combined)) add_exit(exit.id, combined);
    }

    // Paths that fall off the end of the method body return None and allow
    // no successor.
    if (behavior.falls_off_end) {
      const rex::Regex ongoing = rex::simplify(behavior.behavior.ongoing);
      if (!op.exits.empty()) {
        diagnostics.warning(
            op.loc, "operation '" + op.name +
                        "' can finish without executing a return statement; "
                        "such executions allow no successor operation");
      }
      add_exit(kImplicitExit, ongoing);
    }
  }

  const auto connect = [&](fsm::StateId from, const std::string& op_name) {
    const auto entry = entries.find(op_name);
    if (entry == entries.end()) return;
    nfa.add_transition(from, op_symbols.at(op_name), entry->second);
  };

  for (const Operation& op : spec.operations) {
    if (op.initial) connect(fresh, op.name);
    const auto exit_map = exits.find(op.name);
    if (exit_map == exits.end()) continue;
    for (const ExitPoint& exit : op.exits) {
      const auto state = exit_map->second.find(exit.id);
      if (state == exit_map->second.end()) continue;
      for (const std::string& successor : exit.successors) {
        connect(state->second, successor);
      }
      for (ExitPoint& reached : realized.at(op.name).exits) {
        if (reached.id != exit.id) continue;
        reached.successors.insert(reached.successors.end(),
                                  exit.successors.begin(),
                                  exit.successors.end());
      }
    }
  }

  model.event_symbols.assign(events.begin(), events.end());
  ClassSpec reachable;
  reachable.name = spec.name;
  for (auto& [name, op] : realized) {
    reachable.operations.push_back(std::move(op));
  }
  model.realizable = usage_nfa(reachable, table);
  span.arg("nfa_states", static_cast<std::uint64_t>(nfa.state_count()));
  span.arg("events", static_cast<std::uint64_t>(model.event_symbols.size()));
  return model;
}

}  // namespace shelley::core
