#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order.  Times are per operation
// (span totals over the traced operations), counts are run totals, and
// each ratio is followed by its base.
constexpr LayerMetric kLayerMetrics[] = {
    {"upy.lex_ms", "ms"},
    {"upy.parse_ms", "ms"},
    {"upy.lex_mb_per_s", "MB/s"},
    {"shelley.spec_ms", "ms"},
    {"shelley.checks_ms", "ms"},
    {"shelley.key_ms", "ms"},
    {"shelley.system_model_ms", "ms"},
    {"shelley.unattributed_ms", "ms"},
    {"ir.behaviors_ms", "ms"},
    {"fsm.usage_nfa_ms", "ms"},
    {"fsm.determinize_ms", "ms"},
    {"fsm.minimize_ms", "ms"},
    {"fsm.inclusion_ms", "ms"},
    {"fsm.dfa_states", "count"},
    {"fsm.min_states", "count"},
    {"fsm.alphabet_letters", "count"},
    {"fsm.table_compile_ms", "ms"},
    {"ltlf.claims_ms", "ms"},
    {"ltlf.claims", "count"},
    {"engine.load_ms", "ms"},
    {"engine.query_ms", "ms"},
    {"engine.render_ms", "ms"},
    {"engine.memo_hit_ratio", "ratio"},
    {"engine.memo_lookups", "count"},
    {"engine.parse_hit_ratio", "ratio"},
    {"engine.parse_lookups", "count"},
    {"engine.invalidated_per_edit", "count"},
    {"engine.edits", "count"},
    {"engine.request_ms", "ms"},
    {"engine.transport_ms", "ms"},
    {"monitor.ingest_ns_per_event", "ns"},
    {"monitor.sweep_ns_per_event", "ns"},
    {"monitor.decode_ns_per_event", "ns"},
    {"monitor.events", "count"},
    {"monitor.violations", "count"},
    {"monitor.devices", "count"},
};

}  // namespace

std::size_t op_count(double seconds, double nominal_per_second,
                     std::size_t minimum) {
  return std::max(minimum,
                  static_cast<std::size_t>(std::llround(seconds *
                                                        nominal_per_second)));
}

void add_layer_metrics(Result& result, const LayerValues& values,
                       std::vector<double> untraced_ms,
                       std::vector<double> traced_ms) {
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    result.add(metric.name, it == values.end() ? 0.0 : it->second,
               metric.unit);
  }
  result.add("trace.overhead_ms.p50",
             quantile(traced_ms, 0.5) - quantile(untraced_ms, 0.5), "ms");
  result.add("trace.overhead_ms.p90",
             quantile(traced_ms, 0.9) - quantile(untraced_ms, 0.9), "ms");
  result.add("trace.ops", static_cast<double>(traced_ms.size()), "count");
}

void add_span_layers(LayerValues& values, const Tracer& tracer,
                     std::size_t ops, const ReplayCounts& counts,
                     const EngineCounts& engine) {
  const double per_op = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  const auto total = [&](const char* span) {
    return tracer.layer(span).total_ms * per_op;
  };
  const double lex = total("upy.lex");
  values["upy.lex_ms"] = lex;
  // parse_module lexes too: its own share is the parse minus the lex.
  values["upy.parse_ms"] = total("upy.parse") - lex;
  values["shelley.spec_ms"] = total("shelley.spec");
  values["shelley.checks_ms"] = total("shelley.checks");
  values["shelley.key_ms"] = total("shelley.key");
  values["shelley.system_model_ms"] = total("shelley.system_model");
  values["ir.behaviors_ms"] = total("ir.behaviors");
  values["fsm.usage_nfa_ms"] = total("fsm.usage_nfa");
  values["fsm.determinize_ms"] = total("fsm.determinize");
  values["fsm.minimize_ms"] = total("fsm.minimize");
  values["fsm.inclusion_ms"] = total("fsm.inclusion");
  values["ltlf.claims_ms"] = total("ltlf.claims");
  values["engine.load_ms"] = total("engine.load");
  values["engine.query_ms"] = total("engine.query");
  values["engine.render_ms"] = total("engine.render");
  // What the query spends outside every layer the replay probes below it.
  double probed = 0;
  for (const char* layer :
       {"shelley.checks_ms", "shelley.key_ms", "shelley.system_model_ms",
        "ir.behaviors_ms", "fsm.usage_nfa_ms", "fsm.determinize_ms",
        "fsm.minimize_ms", "fsm.inclusion_ms", "ltlf.claims_ms"}) {
    probed += values[layer];
  }
  values["shelley.unattributed_ms"] = values["engine.query_ms"] - probed;
  const double lex_seconds = lex * static_cast<double>(ops) / 1000;
  values["upy.lex_mb_per_s"] =
      lex_seconds > 0 ? counts.lexed_bytes / (1 << 20) / lex_seconds : 0;
  values["fsm.dfa_states"] = counts.dfa_states;
  values["fsm.min_states"] = counts.min_states;
  values["fsm.alphabet_letters"] = counts.alphabet_letters;
  values["ltlf.claims"] = counts.claims;
  values["engine.memo_hit_ratio"] =
      engine.memo_lookups > 0 ? engine.memo_hits / engine.memo_lookups : 0;
  values["engine.memo_lookups"] = engine.memo_lookups;
  values["engine.parse_hit_ratio"] =
      engine.parse_lookups > 0 ? engine.parse_hits / engine.parse_lookups
                               : 0;
  values["engine.parse_lookups"] = engine.parse_lookups;
}

}  // namespace perfbench
