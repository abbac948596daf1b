// Experiment E9 (DESIGN.md): the headline quality table.
//
// The paper's central claim is that the *combination* -- document
// filtering + schema matching + structure-aware scoring -- is what makes
// schema search work. This bench regenerates that claim as a table:
// ranking quality per pipeline stage, on a clean and on a noisy
// (abbreviation-heavy) workload, over a mixed-domain ground-truth corpus.
//
// Expected shape: on clean workloads TF/IDF is already strong and the
// later stages roughly hold the line; on noisy workloads the matcher
// ensemble (n-gram name matching) recovers what exact-term TF/IDF loses,
// and tightness-of-fit sharpens early precision.

#include <cstdio>

#include "bench_common.h"

namespace schemr {
namespace {

void PrintRow(const char* stage, const QualitySummary& q) {
  std::printf("  %-22s %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f\n", stage,
              q.precision_at_5, q.precision_at_10, q.recall_at_10, q.mrr,
              q.map, q.ndcg_at_10);
}

int Run() {
  struct WorkloadSpec {
    const char* label;
    double abbrev_prob;
    double corpus_abbrev;
    uint64_t corpus_seed;
  };
  const WorkloadSpec specs[] = {
      {"clean queries, mild corpus noise", 0.0, 0.2, 41},
      {"abbreviated queries, noisy corpus", 0.7, 0.6, 43},
  };

  for (const WorkloadSpec& spec : specs) {
    CorpusOptions corpus_options;
    // Small per-concept populations plus heavy name noise keep the task
    // from saturating (P@k of 1.0 would hide stage differences).
    corpus_options.num_schemas = 700;
    corpus_options.seed = spec.corpus_seed;
    corpus_options.name_noise.abbreviation_prob = spec.corpus_abbrev;
    corpus_options.name_noise.synonym_prob = 0.25;
    corpus_options.name_noise.truncation_prob = 0.15;
    corpus_options.generic_attributes_per_entity = 1.5;
    auto fixture = CorpusFixture::Build(corpus_options);
    if (!fixture.ok()) {
      std::fprintf(stderr, "fixture failed: %s\n",
                   fixture.status().ToString().c_str());
      return 1;
    }

    QueryWorkloadOptions workload_options;
    workload_options.num_queries = 44;
    workload_options.seed = 7;
    workload_options.keywords_per_query = 2;
    workload_options.keyword_noise.abbreviation_prob = spec.abbrev_prob;
    workload_options.keyword_noise.truncation_prob = spec.abbrev_prob / 2;
    auto workload = GenerateQueryWorkload(workload_options);

    SearchEngine engine(fixture->serving.get());

    std::printf("\n=== E9 quality ablation: %s (corpus=%zu schemas) ===\n",
                spec.label, fixture->corpus.size());
    std::printf("  %-22s %7s %7s %7s %7s %7s %7s\n", "pipeline stage", "P@5",
                "P@10", "R@10", "MRR", "MAP", "nDCG10");

    SearchEngineOptions phase1;
    phase1.enable_matching = false;
    PrintRow("tf-idf only",
             *EvaluateEngine(engine, *fixture, workload, phase1));

    SearchEngineOptions matching;
    matching.enable_tightness = false;
    PrintRow("+ matcher ensemble",
             *EvaluateEngine(engine, *fixture, workload, matching));

    SearchEngineOptions full;
    PrintRow("+ tightness-of-fit",
             *EvaluateEngine(engine, *fixture, workload, full));

    // Pure structural ranking (no coarse blend): how far structure alone
    // carries.
    SearchEngineOptions structural;
    structural.coarse_blend = 0.0;
    PrintRow("tightness only (no blend)",
             *EvaluateEngine(engine, *fixture, workload, structural));
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
