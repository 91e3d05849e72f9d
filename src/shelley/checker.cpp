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

std::string diagnose_subsystem_usage(const fsm::Dfa& usage,
                                     std::string_view field,
                                     const Word& word,
                                     const SymbolTable& table) {
  const std::string prefix = std::string(field) + ".";
  const std::vector<bool> live = fsm::live_states(usage);

  // Simulate step by step; mark the first step that kills the run, or the
  // last step when the word ends in a non-accepting (but live) state.
  std::vector<std::string> rendered;
  fsm::StateId state = usage.initial();
  std::optional<std::string> verdict;
  for (Symbol symbol : word) {
    const std::string& qualified = table.name(symbol);
    if (!qualified.starts_with(prefix)) continue;  // another field's event
    const std::string op = qualified.substr(prefix.size());
    const auto letter = usage.letter_index(symbol);
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

/// What a claim is checked against: an NFA (the tableau's input), the
/// alphabet the claim ranges over, and the NFA's minimal DFA for the
/// oracle: `dfa`, or made by `build` on first use (never by kTableau).
struct ClaimTarget {
  const fsm::Nfa& nfa;
  const std::vector<Symbol>& alphabet;
  std::function<fsm::Dfa()> build;
  std::optional<fsm::Dfa> built = std::nullopt;
  const fsm::Dfa* dfa = nullptr;

  const fsm::Dfa& minimal() {
    if (dfa == nullptr) dfa = &built.emplace(build());
    return *dfa;
  }
};

/// Answers one claim against `target` with the configured engine(s).
std::optional<Word> claim_counterexample(ClaimTarget& target,
                                         const ltlf::Formula& formula,
                                         const std::string& claim_text,
                                         LtlfEngine engine) {
  if (engine == LtlfEngine::kDfa) {
    return ltlf::counterexample(target.minimal(), formula);
  }
  ltlf::TableauResult tableau =
      ltlf::check_tableau(target.nfa, target.alphabet, formula);
  if (tableau.verdict == ltlf::TableauVerdict::kLimited) {
    if (engine == LtlfEngine::kTableau) {
      // Surfaced exactly like the DFA path's budget trips, so verify_spec's
      // resource accounting treats both engines alike.
      throw support::guard::ResourceError(
          support::guard::Resource::kStateBudget, {},
          "ltlf::check_tableau: " + tableau.limit);
    }
    return ltlf::counterexample(target.minimal(), formula);  // oracle decides
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
      ltlf::counterexample(target.minimal(), formula);
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
  } else if (witness && !target.nfa.accepts(*witness)) {
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

/// Parses, lints and checks every claim of `spec`: against `ops` when an
/// atom names one of `op_labels`, else against `events`.
void check_claims(const ClassSpec& spec, SymbolTable& table,
                  DiagnosticEngine& diagnostics, const CheckOptions& options,
                  ClaimTarget& events, ClaimTarget& ops,
                  const std::set<Symbol>& op_labels, CheckResult& result) {
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
    bool mentions_ops = false;
    for (Symbol atom : ltlf::atoms(formula)) {
      if (op_labels.contains(atom)) mentions_ops = true;
    }
    ClaimTarget& target = mentions_ops ? ops : events;
    if (options.lint_claims) {
      lint_claim(formula, target.alphabet, spec, claim, diagnostics, result);
    }
    const auto witness = claim_counterexample(target, formula, claim.text,
                                              options.ltlf_engine);
    if (!witness) continue;
    result.claim_errors.push_back(ClaimError{claim.text, *witness});
  }
}

}  // namespace

std::optional<Word> unrealizable_usage(const SystemModel& model,
                                       UsageAutomaton& usage) {
  // Every system word projects into the declared usage by construction,
  // so only the reverse inclusion needs a witness.
  return fsm::inclusion_witness(usage.subsets(),
                                fsm::determinize(model.realizable));
}

CheckResult check_base_claims(const ClassSpec& spec, UsageAutomaton& usage,
                              SymbolTable& table,
                              DiagnosticEngine& diagnostics,
                              const CheckOptions& options) {
  CheckResult result;
  if (spec.claims.empty()) return result;
  support::trace::Span span("shelley.check_base_claims");
  span.arg("class", spec.name);
  span.arg("claims", static_cast<std::uint64_t>(spec.claims.size()));
  ClaimTarget target{usage.nfa(), usage.nfa().alphabet(),
                     [&] { return fsm::minimize(usage.subsets()); }};
  check_claims(spec, table, diagnostics, options, target, target, {}, result);
  return result;
}

CheckResult check_composite(const ClassSpec& composite,
                            const ClassLookup& lookup, SymbolTable& table,
                            DiagnosticEngine& diagnostics,
                            const CheckOptions& options) {
  UsageAutomaton usage(composite, table);
  return check_composite(composite, usage, lookup, table, diagnostics,
                         options);
}

CheckResult check_composite(const ClassSpec& composite,
                            UsageAutomaton& usage, const ClassLookup& lookup,
                            SymbolTable& table, DiagnosticEngine& diagnostics,
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
  if (const auto witness = unrealizable_usage(model, usage)) {
    diagnostics.warning(
        composite.loc,
        "class '" + composite.name + "': the declared usage [" +
            to_string(*witness, table) +
            "] cannot be realized by any execution of the method bodies");
  }

  // -- Subsystem usage ---------------------------------------------------
  // One usage DFA per subsystem class, built with its first field's
  // prefix.  Each later field of the class reads a copy with the letters
  // renamed to its own; the rename interns the field's names in operation
  // order, as usage_nfa would, so symbol ids stay where they were.
  std::map<const ClassSpec*, std::pair<std::string, fsm::Dfa>> class_usage;
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
    auto shared = class_usage.find(sub_spec);
    std::optional<fsm::Dfa> renamed;
    if (shared == class_usage.end()) {
      shared = class_usage
                   .try_emplace(sub_spec, prefix,
                                usage_dfa(*sub_spec, table, prefix))
                   .first;
    } else {
      for (const Operation& op : sub_spec->operations) {
        (void)table.intern(prefix + op.name);
      }
      const std::size_t cut = shared->second.first.size();
      renamed = fsm::rename_letters(shared->second.second, [&](Symbol letter) {
        return table.intern(prefix + table.name(letter).substr(cut));
      });
    }
    const fsm::Dfa& field_usage = renamed ? *renamed : shared->second.second;
    // A system word is a witness when its projection onto this subsystem
    // is not a valid complete usage: the search steps the usage DFA on its
    // own letters and leaves it in place on every foreign one.
    const auto witness =
        fsm::projected_inclusion_witness(system_rows, field_usage);
    if (!witness) continue;
    SubsystemError error;
    error.field = subsystem.field;
    error.class_name = subsystem.class_name;
    error.counterexample = *witness;
    error.detail =
        diagnose_subsystem_usage(field_usage, subsystem.field, *witness, table);
    result.subsystem_errors.push_back(std::move(error));
  }

  // -- Temporal claims -----------------------------------------------------
  if (composite.claims.empty()) return result;
  // Claims usually speak about subsystem events (`a.open`) and see the
  // system with the composite's own operation labels erased; claims whose
  // atoms mention those labels see the unprojected system language, and
  // the oracle reuses the system DFA built above for them.
  const std::set<Symbol> op_labels(model.op_symbols.begin(),
                                   model.op_symbols.end());
  const fsm::Nfa projected = fsm::map_labels(model.nfa, [&](Symbol s) {
    return op_labels.contains(s) ? Symbol{} : s;
  });
  ClaimTarget events{projected, model.event_symbols, [&] {
    return fsm::minimize(fsm::determinize(projected, model.event_symbols));
  }};
  ClaimTarget full{model.nfa, alphabet, {}, {}, &system};
  check_claims(composite, table, diagnostics, options, events, full, op_labels,
               result);
  return result;
}

}  // namespace shelley::core
