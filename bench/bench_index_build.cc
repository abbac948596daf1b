// Experiment E2 (DESIGN.md): the offline text indexer that runs "at
// scheduled intervals" (paper Fig. 5).
//
// Measures full rebuild throughput versus corpus size, incremental
// Refresh() cost when little changed, and segment save/load -- the three
// operations a scheduled indexer performs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "index/indexer.h"

namespace schemr {
namespace {

void BM_IndexRebuild(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Indexer indexer;
    auto stats = indexer.RebuildFromRepository(*fixture.repository());
    if (!stats.ok()) state.SkipWithError("rebuild failed");
    benchmark::DoNotOptimize(indexer.index().NumTerms());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["schemas"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IndexRebuild)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_IndexRefreshNoChanges(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(5000);
  Indexer indexer;
  if (!indexer.RebuildFromRepository(*fixture.repository()).ok()) {
    state.SkipWithError("rebuild failed");
    return;
  }
  for (auto _ : state) {
    auto stats = indexer.Refresh(*fixture.repository());
    if (!stats.ok()) state.SkipWithError("refresh failed");
    benchmark::DoNotOptimize(stats->schemas_indexed);
  }
}
BENCHMARK(BM_IndexRefreshNoChanges)->Unit(benchmark::kMillisecond);

void BM_IndexIncrementalOneSchema(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(5000);
  Indexer indexer;
  if (!indexer.RebuildFromRepository(*fixture.repository()).ok()) {
    state.SkipWithError("rebuild failed");
    return;
  }
  Schema schema = fixture.corpus[0].schema;
  schema.set_id(fixture.ids[0]);
  for (auto _ : state) {
    if (!indexer.IndexSchema(schema).ok()) {
      state.SkipWithError("index failed");
    }
  }
}
BENCHMARK(BM_IndexIncrementalOneSchema)->Unit(benchmark::kMicrosecond);

void BM_IndexSegmentSave(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(5000);
  std::string path =
      (std::filesystem::temp_directory_path() / "schemr_bench.idx").string();
  const auto snapshot = fixture.serving->Snapshot();
  for (auto _ : state) {
    if (!snapshot->index->Save(path).ok()) state.SkipWithError("save failed");
  }
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
}
BENCHMARK(BM_IndexSegmentSave)->Unit(benchmark::kMillisecond);

void BM_IndexSegmentLoad(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(5000);
  std::string path =
      (std::filesystem::temp_directory_path() / "schemr_bench.idx").string();
  if (!fixture.serving->Snapshot()->index->Save(path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto loaded = InvertedIndex::Load(path);
    if (!loaded.ok()) state.SkipWithError("load failed");
    benchmark::DoNotOptimize(loaded->NumDocs());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_IndexSegmentLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
