// Incremental verification on the ring-200 bench: a cold verify_all of the
// synthetic ring class (cache miss + full pipeline + store) against a warm
// one (pure replay from the on-disk behavior cache).
//
// The artifact section is the correctness half of the claim: it runs the
// cold and warm paths once, checks the rendered reports are byte-identical,
// and prints the cache counters that prove which path each run took.  The
// timed benchmarks below are the performance half; tools/bench_to_json.sh
// folds their ratio into BENCH_automata.json as "incremental_verify".
#include "bench_common.hpp"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "engine/query.hpp"
#include "engine/workspace.hpp"
#include "shelley/cache.hpp"

namespace {

using namespace shelley;

constexpr std::size_t kRingOps = 200;
constexpr std::size_t kRingExits = 8;

/// A workspace holding the ring class over `cache`.  Loaded once per
/// benchmark: the timed loops measure verification, not parsing (the CLI
/// pays parsing on both the cold and the warm run, so it cancels out
/// there).  Each run gets a fresh QueryEngine, so only the disk tier
/// carries answers from one run to the next.
std::unique_ptr<engine::Workspace> ring_workspace(core::BehaviorCache& cache) {
  auto workspace = std::make_unique<engine::Workspace>();
  workspace->set_cache(&cache);
  workspace->load_source("ring.py", shelley::bench::synthetic_class(
                                        kRingOps, kRingExits));
  return workspace;
}

core::Report verify_once(engine::Workspace& workspace) {
  workspace.rewind_to_loaded();
  engine::QueryEngine engine(workspace);
  return engine.verify_all(1);
}

const std::string& cache_directory() {
  static const std::string dir = [] {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "shelley_bench_cache_XXXXXX")
                           .string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("bench_incremental: mkdtemp failed");
    }
    return tmpl;
  }();
  return dir;
}

void clear_cache_directory() {
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_directory())) {
    std::filesystem::remove(entry.path());
  }
}

std::string verify_ring(core::BehaviorCache& cache) {
  const auto workspace = ring_workspace(cache);
  return verify_once(*workspace).render(workspace->verifier().symbols());
}

void print_artifact() {
  shelley::bench::artifact_banner(
      "incremental verification: ring-200 cold vs warm replay");
  clear_cache_directory();
  core::BehaviorCache cache(cache_directory());
  const std::string cold = verify_ring(cache);
  const core::CacheStats after_cold = cache.stats();
  const std::string warm = verify_ring(cache);
  const core::CacheStats after_warm = cache.stats();
  std::printf("ring: %zu ops, %zu exits/op\n", kRingOps, kRingExits);
  std::printf("cold run: %llu misses, %llu stores\n",
              static_cast<unsigned long long>(after_cold.misses),
              static_cast<unsigned long long>(after_cold.stores));
  std::printf("warm run: %llu hits\n",
              static_cast<unsigned long long>(after_warm.hits));
  std::printf("byte-identical replay: %s\n", cold == warm ? "yes" : "NO");
  if (cold != warm || after_warm.hits == 0) {
    // A wrong replay makes the timings below meaningless; fail loudly.
    std::fprintf(stderr, "bench_incremental: warm replay diverged\n");
    std::exit(1);
  }
  shelley::bench::end_banner();
}

void BM_VerifyRing200_Cold(benchmark::State& state) {
  core::BehaviorCache cache(cache_directory());
  const auto workspace = ring_workspace(cache);
  for (auto _ : state) {
    state.PauseTiming();
    clear_cache_directory();
    state.ResumeTiming();
    benchmark::DoNotOptimize(verify_once(*workspace));
  }
  state.counters["cache_hits"] =
      static_cast<double>(cache.stats().hits);  // stays 0: every run misses
}
BENCHMARK(BM_VerifyRing200_Cold)->Unit(benchmark::kMillisecond);

void BM_VerifyRing200_Warm(benchmark::State& state) {
  core::BehaviorCache cache(cache_directory());
  clear_cache_directory();
  (void)verify_ring(cache);  // populate once
  const auto workspace = ring_workspace(cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_once(*workspace));
  }
  state.counters["cache_misses_after_populate"] =
      static_cast<double>(cache.stats().misses - 1);  // stays 0: all hits
}
BENCHMARK(BM_VerifyRing200_Warm)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  std::error_code ec;
  std::filesystem::remove_all(cache_directory(), ec);
  return 0;
}
