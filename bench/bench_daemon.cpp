// Warm daemon vs cold CLI on the ring-200 bench: what a shelleyd session
// saves over re-running shelleyc per request.
//
// The cold benchmark pays what every shelleyc invocation pays -- a fresh
// workspace, a full parse, a full verify.  The warm benchmark is one
// persistent workspace + query engine answering the same request again,
// the way the daemon holds them across requests: the parse memo and the
// report memo hit, and only the render runs.  The artifact section proves
// the warm answer byte-identical first (a wrong replay would make the
// timings meaningless); tools/bench_to_json.sh folds the ratio into
// BENCH_automata.json as "daemon_verify".
#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/query.hpp"
#include "engine/workspace.hpp"

namespace {

using namespace shelley;

constexpr std::size_t kRingOps = 200;
constexpr std::size_t kRingExits = 8;

const std::string& ring_source() {
  static const std::string source =
      shelley::bench::synthetic_class(kRingOps, kRingExits);
  return source;
}

/// One cold shelleyc-shaped run: fresh workspace, parse, verify, render.
std::string cold_run() {
  engine::Workspace workspace;
  workspace.load_source("ring.py", ring_source());
  engine::QueryEngine engine(workspace);
  const core::Report report = engine.verify_all(1);
  return report.render(workspace.verifier().symbols());
}

/// One warm daemon request against a persistent engine.
std::string warm_request(engine::QueryEngine& engine) {
  engine.workspace().rewind_to_loaded();
  const core::Report report = engine.verify_all(1);
  return report.render(engine.workspace().verifier().symbols());
}

void print_artifact() {
  shelley::bench::artifact_banner(
      "demand-driven engine: ring-200 warm daemon vs cold CLI");
  const std::string cold = cold_run();

  engine::Workspace workspace;
  workspace.load_source("ring.py", ring_source());
  engine::QueryEngine engine(workspace);
  (void)warm_request(engine);  // the priming request (a cold one)
  const std::string warm = warm_request(engine);
  const engine::QueryStats::Counts stats =
      engine.stats()[core::CacheKind::kVerdict];

  std::printf("ring: %zu ops, %zu exits/op\n", kRingOps, kRingExits);
  std::printf("warm request: %llu report hits, %llu misses\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("byte-identical to cold CLI: %s\n",
              cold == warm ? "yes" : "NO");
  if (cold != warm || stats.hits == 0) {
    std::fprintf(stderr, "bench_daemon: warm replay diverged\n");
    std::exit(1);
  }
  shelley::bench::end_banner();
}

void BM_DaemonRing200_ColdCli(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cold_run());
  }
}
BENCHMARK(BM_DaemonRing200_ColdCli)->Unit(benchmark::kMillisecond);

void BM_DaemonRing200_Warm(benchmark::State& state) {
  engine::Workspace workspace;
  workspace.load_source("ring.py", ring_source());
  engine::QueryEngine engine(workspace);
  (void)warm_request(engine);  // populate the memo once
  for (auto _ : state) {
    benchmark::DoNotOptimize(warm_request(engine));
  }
  if (engine.stats()[core::CacheKind::kVerdict].misses > 1) {
    // Every timed iteration must be a memo hit.
    std::fprintf(stderr, "bench_daemon: warm loop fell out of the memo\n");
    std::exit(1);
  }
}
BENCHMARK(BM_DaemonRing200_Warm)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
