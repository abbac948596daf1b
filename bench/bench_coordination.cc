// Experiment E7 (DESIGN.md): the coordination factor.
//
// "A coordination factor, defined as the number of terms matched divided
// by the number of terms in the query, is multiplied into the coarse-grain
// score in order to reward results which match the most terms in the
// original query." (paper Sec. 2)
//
// Measures phase-1 ranking quality with the factor on vs off, sweeping
// query length -- the factor matters more the more terms a query has.
// Also sweeps the proximity boost (the index stores proximity data; the
// paper leaves its use implicit).

#include <cstdio>

#include "bench_common.h"
#include "core/candidate_extractor.h"
#include "core/query_parser.h"
#include "eval/ir_metrics.h"

namespace schemr {
namespace {

QualitySummary EvaluatePhase1(const CorpusFixture& fixture,
                              const std::vector<WorkloadQuery>& workload,
                              const CandidateExtractorOptions& options) {
  const auto snapshot = fixture.serving->Snapshot();
  CandidateExtractor extractor(snapshot->index.get());
  std::vector<double> p5, p10, r10, mrr, ap, ndcg;
  for (const WorkloadQuery& wq : workload) {
    auto rel_it = fixture.relevance.find(wq.concept_id);
    if (rel_it == fixture.relevance.end() || rel_it->second.empty()) continue;
    RelevantSet relevant(rel_it->second.begin(), rel_it->second.end());
    auto query = ParseQuery(wq.keywords);
    if (!query.ok()) continue;
    std::vector<uint64_t> ranking;
    for (const Candidate& c : extractor.Extract(*query, options)) {
      ranking.push_back(c.schema_id);
    }
    p5.push_back(PrecisionAtK(ranking, relevant, 5));
    p10.push_back(PrecisionAtK(ranking, relevant, 10));
    r10.push_back(RecallAtK(ranking, relevant, 10));
    mrr.push_back(ReciprocalRank(ranking, relevant));
    ap.push_back(AveragePrecision(ranking, relevant));
    ndcg.push_back(NdcgAtK(ranking, relevant, 10));
  }
  QualitySummary s;
  s.precision_at_5 = Mean(p5);
  s.precision_at_10 = Mean(p10);
  s.recall_at_10 = Mean(r10);
  s.mrr = Mean(mrr);
  s.map = Mean(ap);
  s.ndcg_at_10 = Mean(ndcg);
  s.num_queries = p5.size();
  return s;
}

int Run() {
  const CorpusFixture& fixture = bench::SharedFixture(2000);

  std::printf("\n=== E7 coordination factor (corpus=%zu) ===\n",
              fixture.corpus.size());
  std::printf("  %-10s %-8s %7s %7s %7s %7s\n", "keywords", "coord", "P@5",
              "MRR", "MAP", "nDCG10");
  for (size_t num_keywords : {2ul, 4ul, 6ul}) {
    QueryWorkloadOptions workload_options;
    workload_options.num_queries = 44;
    workload_options.seed = 3;
    workload_options.keywords_per_query = num_keywords;
    auto workload = GenerateQueryWorkload(workload_options);
    for (bool coord : {true, false}) {
      CandidateExtractorOptions options;
      options.pool_size = 50;
      options.index_options.use_coordination_factor = coord;
      QualitySummary q = EvaluatePhase1(fixture, workload, options);
      std::printf("  %-10zu %-8s %7.3f %7.3f %7.3f %7.3f\n", num_keywords,
                  coord ? "on" : "off", q.precision_at_5, q.mrr, q.map,
                  q.ndcg_at_10);
    }
  }

  std::printf("\n  proximity boost sweep (4 keywords):\n");
  std::printf("  %-8s %7s %7s %7s\n", "boost", "P@5", "MRR", "nDCG10");
  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 44;
  workload_options.seed = 3;
  workload_options.keywords_per_query = 4;
  auto workload = GenerateQueryWorkload(workload_options);
  for (double boost : {0.0, 0.25, 0.5, 1.0}) {
    CandidateExtractorOptions options;
    options.index_options.proximity_boost = boost;
    QualitySummary q = EvaluatePhase1(fixture, workload, options);
    std::printf("  %-8.2f %7.3f %7.3f %7.3f\n", boost, q.precision_at_5,
                q.mrr, q.ndcg_at_10);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace schemr

int main() { return schemr::Run(); }
