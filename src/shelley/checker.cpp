#include "shelley/checker.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "fsm/ops.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/eval.hpp"
#include "ltlf/parser.hpp"
#include "ltlf/tableau.hpp"
#include "support/guard.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace shelley::core {

namespace {
std::atomic<bool> g_force_ltlf_disagreement{false};
}  // namespace

namespace testing {
void force_ltlf_disagreement(bool force) {
  g_force_ltlf_disagreement.store(force, std::memory_order_relaxed);
}
}  // namespace testing

std::string CheckResult::render(const SymbolTable& table) const {
  std::string out;
  for (const SubsystemError& error : subsystem_errors) {
    if (!out.empty()) out += '\n';
    out += "Error in specification: INVALID SUBSYSTEM USAGE\n";
    out += "Counter example: " + to_string(error.counterexample, table) + "\n";
    out += "Subsystems errors:\n";
    out += "  * " + error.class_name + " '" + error.field +
           "': " + error.detail + "\n";
  }
  for (const ClaimError& error : claim_errors) {
    if (!out.empty()) out += '\n';
    out += "Error in specification: FAIL TO MEET REQUIREMENT\n";
    out += "Formula: " + error.formula + "\n";
    out += "Counter example: " + to_string(error.counterexample, table) + "\n";
  }
  return out;
}

std::string diagnose_subsystem_usage(const ClassSpec& spec,
                                     std::string_view field,
                                     const Word& projected,
                                     SymbolTable& table) {
  const std::string prefix = std::string(field) + ".";
  const fsm::Dfa usage =
      fsm::minimize(fsm::determinize(usage_nfa(spec, table, prefix)));
  const std::vector<bool> live = fsm::live_states(usage);

  // Simulate step by step; mark the first step that kills the run, or the
  // last step when the word ends in a non-accepting (but live) state.
  std::vector<std::string> rendered;
  fsm::StateId state = usage.initial();
  std::optional<std::string> verdict;
  for (std::size_t i = 0; i < projected.size(); ++i) {
    const std::string& qualified = table.name(projected[i]);
    std::string op = qualified;
    if (op.starts_with(prefix)) op = op.substr(prefix.size());
    const auto letter = usage.letter_index(projected[i]);
    if (!letter) {
      rendered.push_back(">" + op + "<");
      verdict = "(undeclared operation)";
      break;
    }
    state = usage.transition(state, *letter);
    if (!live[state]) {
      rendered.push_back(">" + op + "<");
      verdict = "(not allowed)";
      break;
    }
    rendered.push_back(op);
  }
  if (!verdict) {
    if (usage.is_accepting(state)) return join(rendered, ", ");  // valid
    if (!rendered.empty()) {
      rendered.back() = ">" + rendered.back() + "<";
    }
    verdict = "(not final)";
  }
  return join(rendered, ", ") + " " + *verdict;
}

namespace {

/// Projects `word` onto the symbols that start with `prefix`.
Word project_word(const Word& word, std::string_view prefix,
                  const SymbolTable& table) {
  Word out;
  for (Symbol s : word) {
    if (starts_with(table.name(s), prefix)) out.push_back(s);
  }
  return out;
}

/// Answers one claim with the configured engine(s).  `system` and `alphabet`
/// feed the tableau; `system_dfa` lazily builds the determinized system for
/// the oracle path, so kTableau never pays for a subset construction.
std::optional<Word> claim_counterexample(
    const fsm::Nfa& system, const std::vector<Symbol>& alphabet,
    const std::function<const fsm::Dfa&()>& system_dfa,
    const ltlf::Formula& formula, const std::string& claim_text,
    LtlfEngine engine) {
  if (engine == LtlfEngine::kDfa) {
    return ltlf::counterexample(system_dfa(), formula);
  }
  ltlf::TableauResult tableau = ltlf::check_tableau(system, alphabet, formula);
  if (tableau.verdict == ltlf::TableauVerdict::kLimited) {
    if (engine == LtlfEngine::kTableau) {
      // Surfaced exactly like the DFA path's budget trips, so verify_spec's
      // resource accounting treats both engines alike.
      throw support::guard::ResourceError(
          support::guard::Resource::kStateBudget, {},
          "ltlf::check_tableau: " + tableau.limit);
    }
    return ltlf::counterexample(system_dfa(), formula);  // oracle decides
  }
  std::optional<Word> witness;
  if (tableau.verdict == ltlf::TableauVerdict::kCounterexample) {
    witness = std::move(tableau.counterexample);
  }
  if (engine == LtlfEngine::kTableau) return witness;

  // kBoth: the tableau answers, the DFA oracle audits.  Verdicts must
  // match, witnesses must be byte-identical (both engines find the
  // lexicographically least shortest violation), and the witness must
  // *independently* check out -- a word of L(system) that eval rejects.
  const std::optional<Word> oracle =
      ltlf::counterexample(system_dfa(), formula);
  std::string mismatch;
  if (g_force_ltlf_disagreement.exchange(false, std::memory_order_relaxed)) {
    mismatch = "disagreement injected by testing hook";
  } else if (witness.has_value() != oracle.has_value()) {
    mismatch = witness ? "tableau found a counterexample, oracle proved the "
                         "claim"
                       : "oracle found a counterexample, tableau proved the "
                         "claim";
  } else if (witness && *witness != *oracle) {
    mismatch = "engines found different counterexamples";
  } else if (witness && !system.accepts(*witness)) {
    mismatch = "counterexample is not a word of the system language";
  } else if (witness && ltlf::eval(formula, *witness)) {
    mismatch = "counterexample does not violate the formula";
  }
  if (!mismatch.empty()) {
    throw EngineDisagreement("LTLf engine disagreement on claim \"" +
                             claim_text + "\": " + mismatch);
  }
  return oracle;
}

/// --lint-claims: warn on claims no trace can meet and claims every trace
/// meets; either way the claim is not constraining what the author thinks.
void lint_claim(const ltlf::Formula& formula,
                const std::vector<Symbol>& alphabet, const ClassSpec& spec,
                const Claim& claim, DiagnosticEngine& diagnostics,
                CheckResult& result) {
  using ltlf::Satisfiability;
  if (ltlf::satisfiable(formula, alphabet) == Satisfiability::kUnsatisfiable) {
    diagnostics.warning(
        claim.loc, "class '" + spec.name + "': claim \"" + claim.text +
                       "\" is unsatisfiable -- no finite trace over this "
                       "alphabet can meet it");
    ++result.claim_lints;
    return;
  }
  if (ltlf::satisfiable(ltlf::make_not(formula), alphabet) ==
      Satisfiability::kUnsatisfiable) {
    diagnostics.warning(
        claim.loc, "class '" + spec.name + "': claim \"" + claim.text +
                       "\" is trivially true on this alphabet -- every "
                       "finite trace satisfies it");
    ++result.claim_lints;
  }
}

}  // namespace

std::optional<Word> unrealizable_usage(const ClassSpec& composite,
                                       const SystemModel& model,
                                       SymbolTable& table) {
  // Project the system language onto the composite's own op labels; by
  // construction it is included in the declared usage language, so only
  // the reverse inclusion needs a witness.
  std::set<Symbol> op_labels(model.op_symbols.begin(),
                             model.op_symbols.end());
  const fsm::Nfa projected = fsm::map_labels(
      model.nfa,
      [&](Symbol s) { return op_labels.contains(s) ? s : Symbol{}; });
  const fsm::Dfa realizable = fsm::determinize(
      projected, std::vector<Symbol>(op_labels.begin(), op_labels.end()));
  const fsm::Dfa declared =
      fsm::determinize(usage_nfa(composite, table));
  return fsm::inclusion_witness(declared, realizable);
}

CheckResult check_base_claims(const ClassSpec& spec, SymbolTable& table,
                              DiagnosticEngine& diagnostics,
                              const CheckOptions& options) {
  CheckResult result;
  if (spec.claims.empty()) return result;
  support::trace::Span span("shelley.check_base_claims");
  span.arg("class", spec.name);
  span.arg("claims", static_cast<std::uint64_t>(spec.claims.size()));
  const fsm::Nfa usage = usage_nfa(spec, table);
  const std::vector<Symbol>& alphabet = usage.alphabet();
  std::optional<fsm::Dfa> usage_dfa;  // only the oracle path pays for it
  const auto get_dfa = [&]() -> const fsm::Dfa& {
    if (!usage_dfa) usage_dfa = fsm::minimize(fsm::determinize(usage));
    return *usage_dfa;
  };
  for (const Claim& claim : spec.claims) {
    support::trace::Span claim_span("shelley.claim");
    claim_span.arg("formula", claim.text);
    ltlf::Formula formula;
    try {
      formula = ltlf::parse(claim.text, table, claim.loc);
    } catch (const ParseError& error) {
      diagnostics.error(error.loc(), "class '" + spec.name +
                                       "': cannot parse claim \"" +
                                       claim.text + "\": " + error.what());
      continue;
    }
    if (options.lint_claims) {
      lint_claim(formula, alphabet, spec, claim, diagnostics, result);
    }
    const auto witness = claim_counterexample(
        usage, alphabet, get_dfa, formula, claim.text, options.ltlf_engine);
    if (!witness) continue;
    result.claim_errors.push_back(ClaimError{claim.text, *witness});
  }
  return result;
}

CheckResult check_composite(const ClassSpec& composite,
                            const ClassLookup& lookup, SymbolTable& table,
                            DiagnosticEngine& diagnostics,
                            const CheckOptions& options) {
  CheckResult result;
  support::trace::Span span("shelley.check_composite");
  span.arg("class", composite.name);

  const auto behaviors = extract_behaviors(composite, table, diagnostics);
  const SystemModel model =
      build_system_model(composite, behaviors, table, diagnostics);
  const std::vector<Symbol> alphabet = model.full_alphabet();
  const fsm::Dfa system =
      fsm::minimize(fsm::determinize(model.nfa, alphabet));
  // Built once, walked by every subsystem's inclusion search below.
  const fsm::LiveRows system_rows(system);

  // Realizability of the declared op-level contract (warning only).
  if (const auto witness = unrealizable_usage(composite, model, table)) {
    diagnostics.warning(
        composite.loc,
        "class '" + composite.name + "': the declared usage [" +
            to_string(*witness, table) +
            "] cannot be realized by any execution of the method bodies");
  }

  // -- Subsystem usage ---------------------------------------------------
  for (const SubsystemDecl& subsystem : composite.subsystems) {
    support::trace::Span sub_span("shelley.subsystem");
    sub_span.arg("field", subsystem.field);
    sub_span.arg("class", subsystem.class_name);
    const ClassSpec* sub_spec = lookup(subsystem.class_name);
    if (sub_spec == nullptr) {
      diagnostics.error(subsystem.loc,
                        "class '" + composite.name + "': subsystem '" +
                            subsystem.field + "' has unknown class '" +
                            subsystem.class_name + "'");
      continue;
    }
    const std::string prefix = subsystem.field + ".";
    const fsm::Dfa usage =
        fsm::minimize(fsm::determinize(usage_nfa(*sub_spec, table, prefix)));
    // A system word is a witness when its projection onto this subsystem
    // is not a valid complete usage: the search steps the usage DFA on its
    // own letters and leaves it in place on every foreign one.
    const auto witness = fsm::projected_inclusion_witness(system_rows, usage);
    if (!witness) continue;
    SubsystemError error;
    error.field = subsystem.field;
    error.class_name = subsystem.class_name;
    error.counterexample = *witness;
    error.detail = diagnose_subsystem_usage(
        *sub_spec, subsystem.field,
        project_word(*witness, prefix, table), table);
    result.subsystem_errors.push_back(std::move(error));
  }

  // -- Temporal claims -----------------------------------------------------
  if (!composite.claims.empty()) {
    // Claims usually speak about subsystem events (`a.open`); claims whose
    // atoms mention the composite's own operation labels are checked
    // against the unprojected system language instead.
    std::set<Symbol> op_labels(model.op_symbols.begin(),
                               model.op_symbols.end());
    const fsm::Nfa projected =
        fsm::map_labels(model.nfa, [&](Symbol s) {
          return op_labels.contains(s) ? Symbol{} : s;
        });
    // The projected determinization is lazy: the tableau engine runs
    // straight on the NFAs and never needs it.  Claims over op labels reuse
    // the system DFA built above.
    std::optional<fsm::Dfa> projected_dfa;
    const auto get_projected_dfa = [&]() -> const fsm::Dfa& {
      if (!projected_dfa) {
        projected_dfa =
            fsm::minimize(fsm::determinize(projected, model.event_symbols));
      }
      return *projected_dfa;
    };
    const auto get_full_dfa = [&]() -> const fsm::Dfa& { return system; };

    for (const Claim& claim : composite.claims) {
      support::trace::Span claim_span("shelley.claim");
      claim_span.arg("formula", claim.text);
      ltlf::Formula formula;
      try {
        formula = ltlf::parse(claim.text, table, claim.loc);
      } catch (const ParseError& error) {
        diagnostics.error(error.loc(), "class '" + composite.name +
                                         "': cannot parse claim \"" +
                                         claim.text + "\": " + error.what());
        continue;
      }
      bool mentions_ops = false;
      for (Symbol atom : ltlf::atoms(formula)) {
        if (op_labels.contains(atom)) mentions_ops = true;
      }
      const fsm::Nfa& target = mentions_ops ? model.nfa : projected;
      const std::vector<Symbol>& claim_alphabet =
          mentions_ops ? alphabet : model.event_symbols;
      if (options.lint_claims) {
        lint_claim(formula, claim_alphabet, composite, claim, diagnostics,
                   result);
      }
      const auto witness = claim_counterexample(
          target, claim_alphabet,
          mentions_ops ? std::function<const fsm::Dfa&()>(get_full_dfa)
                       : std::function<const fsm::Dfa&()>(get_projected_dfa),
          formula, claim.text, options.ltlf_engine);
      if (!witness) continue;
      result.claim_errors.push_back(ClaimError{claim.text, *witness});
    }
  }
  return result;
}

}  // namespace shelley::core
