#include "replay.hpp"

#include <map>
#include <optional>
#include <set>

#include "fsm/ops.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/parser.hpp"
#include "shelley/automata.hpp"
#include "shelley/graph.hpp"
#include "shelley/invocation.hpp"
#include "shelley/lint.hpp"
#include "upy/lexer.hpp"
#include "upy/parser.hpp"

namespace perfbench {

namespace {

using namespace shelley;

fsm::Dfa determinize_counted(Tracer& tracer, ReplayCounts& counts,
                             const fsm::Nfa& nfa,
                             std::optional<std::vector<Symbol>> alphabet) {
  const Tracer::Scope span(tracer, "fsm.determinize");
  fsm::Dfa dfa = alphabet ? fsm::determinize(nfa, std::move(*alphabet))
                          : fsm::determinize(nfa);
  counts.dfa_states += static_cast<double>(dfa.state_count());
  counts.alphabet_letters += static_cast<double>(dfa.alphabet().size());
  return dfa;
}

fsm::Dfa minimize_counted(Tracer& tracer, ReplayCounts& counts,
                          const fsm::Dfa& dfa) {
  const Tracer::Scope span(tracer, "fsm.minimize");
  fsm::Dfa min = fsm::minimize(dfa);
  counts.min_states += static_cast<double>(min.state_count());
  return min;
}

fsm::Dfa usage_dfa(Tracer& tracer, ReplayCounts& counts,
                   const core::ClassSpec& spec, SymbolTable& table,
                   const std::string& prefix) {
  fsm::Nfa usage;
  {
    const Tracer::Scope span(tracer, "fsm.usage_nfa");
    usage = core::usage_nfa(spec, table, prefix);
  }
  return minimize_counted(
      tracer, counts, determinize_counted(tracer, counts, usage, std::nullopt));
}

void check_claims(Tracer& tracer, ReplayCounts& counts,
                  const std::vector<core::Claim>& claims,
                  const fsm::Dfa& system, SymbolTable& table) {
  for (const core::Claim& claim : claims) {
    const Tracer::Scope span(tracer, "ltlf.claims");
    const ltlf::Formula formula = ltlf::parse(claim.text, table, claim.loc);
    (void)ltlf::counterexample(system, formula);
    ++counts.claims;
  }
}

void replay_composite(Tracer& tracer, ReplayCounts& counts,
                      const core::ClassSpec& spec,
                      const core::ClassLookup& lookup, SymbolTable& table,
                      DiagnosticEngine& diagnostics) {
  std::map<std::string, core::OperationBehavior> behaviors;
  {
    const Tracer::Scope span(tracer, "ir.behaviors");
    behaviors = core::extract_behaviors(spec, table, diagnostics);
  }
  std::optional<core::SystemModel> model;
  {
    const Tracer::Scope span(tracer, "shelley.system_model");
    model.emplace(
        core::build_system_model(spec, behaviors, table, diagnostics));
  }
  const std::vector<Symbol> alphabet = model->full_alphabet();
  const fsm::Dfa system = minimize_counted(
      tracer, counts,
      determinize_counted(tracer, counts, model->nfa, alphabet));
  for (const core::SubsystemDecl& subsystem : spec.subsystems) {
    const core::ClassSpec* sub = lookup(subsystem.class_name);
    if (sub == nullptr) continue;
    const fsm::Dfa usage =
        usage_dfa(tracer, counts, *sub, table, subsystem.field + ".");
    const Tracer::Scope span(tracer, "fsm.inclusion");
    const fsm::Dfa monitor = fsm::extend_alphabet_ignore(usage, alphabet);
    (void)fsm::inclusion_witness(system, monitor);
  }
  if (spec.claims.empty()) return;
  // Claims over subsystem events see the system with its own operation
  // labels erased, as check_composite does.
  const std::set<Symbol> labels(model->op_symbols.begin(),
                                model->op_symbols.end());
  const fsm::Nfa projected = fsm::map_labels(model->nfa, [&](Symbol s) {
    return labels.contains(s) ? Symbol{} : s;
  });
  const fsm::Dfa events = minimize_counted(
      tracer, counts,
      determinize_counted(tracer, counts, projected, model->event_symbols));
  check_claims(tracer, counts, spec.claims, events, table);
}

}  // namespace

void EngineCounts::add(const engine::MemoStats& memo_before,
                       const engine::MemoStats& memo_after,
                       const engine::ParseStats& parse_before,
                       const engine::ParseStats& parse_after) {
  memo_hits += static_cast<double>(memo_after.hits - memo_before.hits);
  memo_lookups += static_cast<double>(memo_after.hits + memo_after.misses -
                                      memo_before.hits - memo_before.misses);
  parse_hits += static_cast<double>(parse_after.hits - parse_before.hits);
  parse_lookups +=
      static_cast<double>(parse_after.hits + parse_after.misses -
                          parse_before.hits - parse_before.misses);
}

std::deque<core::ClassSpec> replay_front(Tracer& tracer, ReplayCounts& counts,
                                         const std::string& text,
                                         upy::Module& module) {
  {
    const Tracer::Scope span(tracer, "upy.lex");
    (void)upy::lex(text);
  }
  counts.lexed_bytes += static_cast<double>(text.size());
  {
    const Tracer::Scope span(tracer, "upy.parse");
    module = upy::parse_module(text);
  }
  std::deque<core::ClassSpec> specs;
  const Tracer::Scope span(tracer, "shelley.spec");
  DiagnosticEngine diagnostics;
  for (const upy::ClassDef& cls : module.classes) {
    specs.push_back(core::extract_class_spec(cls, diagnostics));
  }
  return specs;
}

void replay_keys(Tracer& tracer, const core::Verifier& verifier) {
  const Tracer::Scope span(tracer, "shelley.key");
  for (const core::ClassSpec& spec : verifier.classes()) {
    (void)verifier.cache_key(spec);
  }
}

void replay_checks(Tracer& tracer, ReplayCounts& counts,
                   const std::vector<const core::ClassSpec*>& classes,
                   const core::ClassLookup& lookup) {
  SymbolTable table;
  DiagnosticEngine diagnostics;
  {
    const Tracer::Scope span(tracer, "shelley.checks");
    for (const core::ClassSpec* spec : classes) {
      (void)core::DependencyGraph::build(*spec, diagnostics);
      (void)core::analyze_invocations(*spec, lookup, diagnostics);
      (void)core::lint_class(*spec, table, diagnostics);
    }
  }
  for (const core::ClassSpec* spec : classes) {
    if (spec->is_composite) {
      replay_composite(tracer, counts, *spec, lookup, table, diagnostics);
    } else if (!spec->claims.empty()) {
      const fsm::Dfa usage = usage_dfa(tracer, counts, *spec, table, "");
      check_claims(tracer, counts, spec->claims, usage, table);
    }
  }
}

}  // namespace perfbench
