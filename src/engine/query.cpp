#include "engine/query.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "fsm/ops.hpp"
#include "ltlf/parser.hpp"
#include "shelley/automata.hpp"
#include "shelley/replay.hpp"
#include "smv/smv.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::engine {

namespace {

/// Charges the enclosing scope's wall time to a named latency histogram
/// (one per query kind).  Armed only while metrics collection is on, so
/// the disabled cost is one relaxed load and a branch -- no clock read.
class LatencyProbe {
 public:
  explicit LatencyProbe(std::string_view name) {
    if (!support::metrics::enabled()) return;
    armed_ = true;
    name_ = name;
    start_ = std::chrono::steady_clock::now();
  }
  ~LatencyProbe() {
    if (!armed_) return;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_);
    support::metrics::histogram(name_).record(
        static_cast<std::uint64_t>(elapsed.count()));
  }

  LatencyProbe(const LatencyProbe&) = delete;
  LatencyProbe& operator=(const LatencyProbe&) = delete;

 private:
  bool armed_ = false;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

/// What a query's cold path produced: the answer, plus its encoding when
/// the answer may persist (nullopt keeps it out of every tier).
template <typename T>
struct Built {
  T value;
  std::optional<std::string> bytes;
};

void trace_hit(std::string_view tier, core::CacheKind kind,
               const std::string& class_name) {
  if (kind == core::CacheKind::kVerdict && support::trace::enabled()) {
    support::trace::instant(std::string(tier) + class_name);
  }
}

}  // namespace

void QueryEngine::count(core::CacheKind kind, bool hit) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  QueryStats::Counts& counts = stats_[kind];
  ++(hit ? counts.hits : counts.misses);
}

/// The one tiering rule: memo, then disk, then `build`.  `decode(bytes)`
/// turns a tier's bytes into the answer, or returns nullopt to refuse them
/// (a payload that does not decode, a verdict naming another class): refused
/// bytes are never replayed, and their tier counts the lookup as a miss
/// (memo) or an invalidation (disk).  A disk hit is promoted into the memo;
/// a built answer with bytes is stored in both.
template <typename T, typename Decode, typename Build>
T QueryEngine::tiered(core::CacheKind kind, const core::ClassSpec& spec,
                      Decode&& decode, Build&& build) {
  const support::Digest128 key = workspace_.verifier().cache_key(spec);
  if (const auto bytes = memo_.get(kind, key)) {
    if (std::optional<T> value = decode(*bytes)) {
      count(kind, true);
      trace_hit("memo.hit/", kind, spec.name);
      return *std::move(value);
    }
    memo_.reject_hit();
  }
  count(kind, false);
  core::BehaviorCache* cache = workspace_.cache();
  if (cache != nullptr) {
    if (auto bytes = cache->get(kind, key)) {
      if (std::optional<T> value = decode(*bytes)) {
        trace_hit("cache.hit/", kind, spec.name);
        memo_.put(kind, key, *std::move(bytes));
        return *std::move(value);
      }
      cache->reject_hit();
    }
  }
  Built<T> built = build();
  if (built.bytes) {
    if (cache != nullptr) cache->put(kind, key, *built.bytes);
    memo_.put(kind, key, *std::move(built.bytes));
  }
  return std::move(built.value);
}

core::ClassReport QueryEngine::report(const core::ClassSpec& spec,
                                      DiagnosticEngine& sink) {
  const LatencyProbe probe("query.report_us");
  core::Verifier& verifier = workspace_.verifier();
  return tiered<core::ClassReport>(
      core::CacheKind::kVerdict, spec,
      [&](std::string_view bytes) -> std::optional<core::ClassReport> {
        auto verdict = core::BehaviorCache::decode_verdict(bytes);
        // The key embeds the class name (fingerprint.hpp), so a verdict
        // naming another class is a collision or a forgery.
        if (!verdict || verdict->class_name != spec.name) return std::nullopt;
        return verifier.replay_verdict(spec, *std::move(verdict), sink);
      },
      [&] {
        // The class's diagnostics land in `sink` from diags_begin on, which
        // is exactly the slice capture_verdict stores.
        const std::size_t diags_begin = sink.diagnostics().size();
        Built<core::ClassReport> built{verifier.verify_spec(spec, sink), {}};
        if (built.value.resource_errors == 0) {  // aborted, not a result
          built.bytes = core::BehaviorCache::encode_verdict(
              core::capture_verdict(built.value, sink, diags_begin,
                                    verifier.symbols()));
        }
        return built;
      });
}

core::ClassReport QueryEngine::verify_class(std::string_view name) {
  core::Verifier& verifier = workspace_.verifier();
  const core::ClassSpec* spec = verifier.find_class(name);
  if (spec == nullptr) {
    verifier.diagnostics().error(
        {}, "cannot verify unknown class '" + std::string(name) + "'");
    core::ClassReport result;
    result.class_name = std::string(name);
    result.invocation_errors = 1;
    return result;
  }
  return report(*spec, verifier.diagnostics());
}

core::Report QueryEngine::verify_all(std::size_t jobs) {
  const LatencyProbe probe("query.verify_all_us");
  // One root span per top-level call; the per-class report() spans opened
  // on pool workers parent here via the context ThreadPool::submit carries.
  support::trace::Span span("engine.verify_all");
  span.arg("jobs", static_cast<std::uint64_t>(jobs));
  return workspace_.verifier().verify_all(
      jobs, [this](const core::ClassSpec& spec, DiagnosticEngine& sink) {
        return report(spec, sink);
      });
}

fsm::CompiledDfa QueryEngine::compiled_table(const core::ClassSpec& spec) {
  const LatencyProbe probe("query.compiled_table_us");
  SymbolTable& symbols = workspace_.verifier().symbols();
  return tiered<fsm::CompiledDfa>(
      core::CacheKind::kTable, spec,
      [&](std::string_view bytes) -> std::optional<fsm::CompiledDfa> {
        try {
          return fsm::CompiledDfa::from_bytes(bytes, symbols);
        } catch (const std::exception&) {
          return std::nullopt;  // e.g. table-format version skew
        }
      },
      [&] {
        Built<fsm::CompiledDfa> built{
            fsm::CompiledDfa::compile(core::usage_dfa(spec, symbols),
                                      symbols),
            {}};
        built.bytes = built.value.to_bytes();
        return built;
      });
}

SmvArtifact QueryEngine::smv_model(const core::ClassSpec& spec) {
  const LatencyProbe probe("query.smv_model_us");
  core::Verifier& verifier = workspace_.verifier();
  return tiered<SmvArtifact>(
      core::CacheKind::kArtifact, spec,
      [](std::string_view bytes) {
        return std::optional<SmvArtifact>(SmvArtifact{std::string(bytes), {}});
      },
      [&] {
        const auto behaviors = core::extract_behaviors(
            spec, verifier.symbols(), verifier.diagnostics());
        const core::SystemModel model = core::build_system_model(
            spec, behaviors, verifier.symbols(), verifier.diagnostics());
        const fsm::Dfa dfa =
            fsm::minimize(fsm::determinize(model.nfa, model.full_alphabet()));
        smv::SmvModel smv_model =
            smv::from_dfa(dfa, verifier.symbols(), spec.name);
        Built<SmvArtifact> built;
        for (const core::Claim& claim : spec.claims) {
          try {
            smv::add_ltlspec(
                smv_model,
                ltlf::parse(claim.text, verifier.symbols(), claim.loc),
                verifier.symbols());
          } catch (const ParseError&) {
            built.value.skipped_claims.push_back(claim.text);
          }
        }
        built.value.text = smv::emit(smv_model);
        // A model with skipped claims is incomplete; never memoize it in any
        // tier, so the caller's skip notice reprints on every run.
        if (built.value.skipped_claims.empty()) built.bytes = built.value.text;
        return built;
      });
}

std::size_t QueryEngine::apply_update(const UpdateResult& update) {
  std::size_t dropped = 0;
  for (const support::Digest128& key : update.stale_keys) {
    dropped += memo_.invalidate(key);
  }
  return dropped;
}

QueryStats QueryEngine::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace shelley::engine
