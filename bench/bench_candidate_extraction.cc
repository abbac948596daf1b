// Experiment E1 (DESIGN.md): the candidate-extraction phase as "a fast
// and scalable filter for relevant candidate schemas".
//
// Measures phase-1 query latency against corpus sizes from 1k to 30k
// schemas (the paper's deployment scale), contrasted with a brute-force
// linear scan over all schema documents -- the thing the inverted index
// exists to avoid. Expected shape: index lookup grows far slower than the
// scan as the corpus grows.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/candidate_extractor.h"
#include "core/query_parser.h"
#include "match/features.h"
#include "match/name_matcher.h"

namespace schemr {
namespace {

void BM_CandidateExtraction(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  const auto& workload = bench::SharedWorkload(0.0);
  const auto snapshot = fixture.serving->Snapshot();
  CandidateExtractor extractor(snapshot->index.get());
  CandidateExtractorOptions options;
  options.pool_size = 50;

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    benchmark::DoNotOptimize(extractor.Extract(*query, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["corpus"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CandidateExtraction)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Arg(30000)
    ->Unit(benchmark::kMicrosecond);

// The baseline the index replaces: score every schema by running the name
// matcher against the merged query (what a matcher-only system without a
// document filter would do).
void BM_BruteForceScanBaseline(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  const auto& workload = bench::SharedWorkload(0.0);
  NameMatcher matcher;
  const auto snapshot = fixture.serving->Snapshot();
  const MatchFeatureCatalog& catalog = *snapshot->match_features;
  MatchScratch scratch;

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    const Schema& query_schema = query->AsSchema();
    const auto query_features =
        BuildSchemaFeatures(query_schema, catalog.options());
    double best = 0.0;
    for (size_t k = 0; k < fixture.corpus.size(); ++k) {
      const SchemaFeatures& features = *catalog.Find(fixture.ids[k]);
      scratch.Reset(query_features->terms.size(), features.terms.size());
      SimilarityMatrix m =
          matcher.Match(query_schema, fixture.corpus[k].schema,
                        MatchContext{*query_features, features, scratch});
      best = std::max(best, m.Mean());
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["corpus"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BruteForceScanBaseline)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Pool size sweep: phase-1 cost versus how many candidates are handed to
// the expensive match phase.
void BM_CandidatePoolSize(benchmark::State& state) {
  const CorpusFixture& fixture = bench::SharedFixture(10000);
  const auto& workload = bench::SharedWorkload(0.0);
  const auto snapshot = fixture.serving->Snapshot();
  CandidateExtractor extractor(snapshot->index.get());
  CandidateExtractorOptions options;
  options.pool_size = static_cast<size_t>(state.range(0));

  size_t qi = 0;
  for (auto _ : state) {
    auto query = ParseQuery(workload[qi % workload.size()].keywords);
    ++qi;
    benchmark::DoNotOptimize(extractor.Extract(*query, options));
  }
  state.counters["pool"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CandidatePoolSize)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
