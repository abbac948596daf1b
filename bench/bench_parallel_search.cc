// Parallel match pipeline experiments (E16, DESIGN.md §11): phase-2/3
// scoring speedup vs scoring_threads, score-bound pruning effectiveness,
// and the result-cache hit path vs the full pipeline.
//
// Expected shape: with a pool large enough to amortize the hand-off
// (>= a few hundred candidates), phase-2/3 wall time drops near-linearly
// up to the physical core count -- the candidates are independent and
// each lands in its own pre-sized slot, so no merge step serializes the
// tail. Pruning only pays when the bound tracks a spread-out coarse
// distribution (high coarse_blend); at the default blend the bound floor
// is 0.75 and pruning is a no-op by design. A cache hit skips all three
// phases and should answer in the time of a fingerprint + map lookup.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_common.h"
#include "core/query_parser.h"
#include "core/result_cache.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"

namespace schemr {
namespace {

ServingCorpus& SharedCorpus() {
  static ServingCorpus* corpus = [] {
    CorpusOptions options;
    options.num_schemas = 2000;
    options.seed = 20090629;
    auto fixture = CorpusFixture::Build(options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "fixture build failed: %s\n",
                   fixture.status().ToString().c_str());
      std::abort();
    }
    return fixture->serving.release();
  }();
  return *corpus;
}

const SearchEngine& SharedEngine() {
  static const SearchEngine* engine = new SearchEngine(&SharedCorpus());
  return *engine;
}

/// One full search, pool size x scoring threads. The speedup of interest
/// is phase2+phase3 (reported as a counter); total time includes the
/// serial phase-1 extraction.
void BM_ParallelScoring(benchmark::State& state) {
  const SearchEngine& engine = SharedEngine();
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngineOptions options;
  options.extraction.pool_size = static_cast<size_t>(state.range(0));
  options.scoring_threads = static_cast<size_t>(state.range(1));
  options.top_k = 10;

  double match_seconds = 0.0;
  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    SearchStats stats;
    SearchEngineOptions per_call = options;
    per_call.stats = &stats;
    auto results = engine.Search(*query, per_call);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
    match_seconds += stats.phase2_seconds + stats.phase3_seconds;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["pool"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
  // Summed per-worker CPU seconds across phases 2/3, per search. Constant
  // across thread counts = perfect work conservation; the wall-time
  // speedup shows up in the per-iteration time.
  state.counters["match_cpu_s"] = benchmark::Counter(
      match_seconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ParallelScoring)
    ->ArgsProduct({{100, 500}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Score-bound pruning at a coarse-heavy blend: range(0) is the blend in
/// percent, range(1) toggles pruning. The skip fraction is reported so
/// the table shows how much of the pool the bound discharges.
void BM_PruningEffect(benchmark::State& state) {
  const SearchEngine& engine = SharedEngine();
  const auto& workload = bench::SharedWorkload(0.0);
  SearchEngineOptions options;
  options.extraction.pool_size = 500;
  options.top_k = 10;
  options.coarse_blend = static_cast<double>(state.range(0)) / 100.0;
  options.enable_pruning = state.range(1) != 0;

  size_t skipped = 0;
  size_t pool_seen = 0;
  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    SearchStats stats;
    SearchEngineOptions per_call = options;
    per_call.stats = &stats;
    auto results = engine.Search(*query, per_call);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
    skipped += stats.candidates_skipped;
    pool_seen += options.extraction.pool_size;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["blend"] = static_cast<double>(state.range(0)) / 100.0;
  state.counters["pruned"] = static_cast<double>(state.range(1));
  state.counters["skip_frac"] =
      pool_seen > 0 ? static_cast<double>(skipped) / pool_seen : 0.0;
  state.SetLabel(options.enable_pruning ? "pruning on" : "pruning off");
}
BENCHMARK(BM_PruningEffect)
    ->ArgsProduct({{25, 90}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// The cache hit path against the full pipeline on the same query:
/// range(0) == 1 serves from the snapshot-keyed cache, 0 bypasses it.
void BM_ResultCachePath(benchmark::State& state) {
  static SearchEngine* engine = [] {
    auto* e = new SearchEngine(&SharedCorpus());
    e->EnableResultCache(64);
    return e;
  }();
  const auto& workload = bench::SharedWorkload(0.0);
  const bool cached = state.range(0) != 0;
  SearchEngineOptions options;
  options.extraction.pool_size = 100;
  options.top_k = 10;
  options.cache_bypass = !cached;

  // Warm the cache so the cached runs measure pure hits.
  auto warm = ParseQuery(workload[0].keywords);
  if (!engine->Search(*warm, options).ok()) {
    state.SkipWithError("warmup search failed");
    return;
  }

  size_t hits = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[0].keywords);
    SearchStats stats;
    SearchEngineOptions per_call = options;
    per_call.stats = &stats;
    auto results = engine->Search(*query, per_call);
    if (!results.ok()) state.SkipWithError("search failed");
    benchmark::DoNotOptimize(results->size());
    if (stats.cache_hit) ++hits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["hit_frac"] =
      state.iterations() > 0
          ? static_cast<double>(hits) / state.iterations()
          : 0.0;
  state.SetLabel(cached ? "cache hit" : "cache bypass");
}
BENCHMARK(BM_ResultCachePath)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
