// Experiment E20 microbenchmarks (DESIGN.md §16): the signature
// pre-filter and columnar match features, measured at their sources.
//
// Four costs matter:
//   1. signature build throughput — the index-time price of the
//      subsystem (amortized once per schema, persisted across runs);
//   2. the screen itself — EstimatedSimilarity per candidate, which must
//      be orders of magnitude under a matcher invocation for the
//      pre-filter to be worth anything;
//   3. the columnar ensemble per candidate — the phase-2 kernel;
//   4. packed-profile Dice vs text-level (hash-map) Dice — the innermost
//      loop.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "match/signature.h"
#include "text/ngram.h"

namespace schemr {
namespace {

/// Features + signatures for the first `n` schemas of the shared fixture,
/// cached per size (building 1k feature sets takes ~100ms; benches reuse).
struct FeatureSet {
  std::vector<const Schema*> schemas;
  std::vector<std::shared_ptr<SchemaFeatures>> features;
  DfTable df;
};

const FeatureSet& SharedFeatures(size_t n) {
  static std::map<size_t, std::unique_ptr<FeatureSet>>* cache =
      new std::map<size_t, std::unique_ptr<FeatureSet>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto set = std::make_unique<FeatureSet>();
    const CorpusFixture& fixture = bench::SharedFixture(n);
    FeatureBuildOptions options;
    for (const GeneratedSchema& g : fixture.corpus) {
      set->schemas.push_back(&g.schema);
      set->features.push_back(BuildSchemaFeatures(g.schema, options));
      set->df.AddDocument(*set->features.back());
    }
    for (auto& f : set->features) ComputeSignature(f.get(), &set->df);
    it = cache->emplace(n, std::move(set)).first;
  }
  return *it->second;
}

// --- 1. index-time signature build ------------------------------------------------

void BM_SignatureBuild(benchmark::State& state) {
  const CorpusFixture& fixture =
      bench::SharedFixture(static_cast<size_t>(state.range(0)));
  FeatureBuildOptions options;
  size_t i = 0;
  for (auto _ : state) {
    const Schema& schema = fixture.corpus[i % fixture.corpus.size()].schema;
    ++i;
    auto features = BuildSchemaFeatures(schema, options);
    ComputeSignature(features.get(), nullptr);
    benchmark::DoNotOptimize(features->signature.crc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureBuild)->Arg(1000)->Unit(benchmark::kMicrosecond);

// --- 2. the screen ----------------------------------------------------------------

void BM_SignatureScreen(benchmark::State& state) {
  const FeatureSet& set = SharedFeatures(1000);
  const SchemaSignature& query = set.features[0]->signature;
  size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sink += EstimatedSimilarity(query,
                                set.features[i % set.features.size()]
                                    ->signature);
    ++i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureScreen)->Unit(benchmark::kNanosecond);

// --- 3. the phase-2 kernel --------------------------------------------------------

void BM_EnsemblePrepared(benchmark::State& state) {
  const FeatureSet& set = SharedFeatures(1000);
  MatcherEnsemble ensemble = MatcherEnsemble::Default();
  const Schema& query = *set.schemas[0];
  MatchScratch scratch;
  size_t i = 1;
  for (auto _ : state) {
    const size_t c = 1 + (i % (set.schemas.size() - 1));
    ++i;
    const MatchContext context{*set.features[0], *set.features[c], scratch};
    benchmark::DoNotOptimize(ensemble.Match(query, *set.schemas[c], context));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnsemblePrepared)->Unit(benchmark::kMicrosecond);

// --- 4. the innermost loop --------------------------------------------------------

void BM_DiceLegacy(benchmark::State& state) {
  NgramProfile a = BuildNgramProfile("patient_record_history", 2, 4);
  NgramProfile b = BuildNgramProfile("patientrecordhistoric", 2, 4);
  double sink = 0.0;
  for (auto _ : state) sink += DiceSimilarity(a, b);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DiceLegacy)->Unit(benchmark::kNanosecond);

void BM_DicePacked(benchmark::State& state) {
  PackedProfile a =
      PackProfile(BuildNgramProfile("patient_record_history", 2, 4));
  PackedProfile b =
      PackProfile(BuildNgramProfile("patientrecordhistoric", 2, 4));
  double sink = 0.0;
  for (auto _ : state) sink += PackedDice(a, b);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DicePacked)->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace schemr

BENCHMARK_MAIN();
