#include "eval/harness.h"

#include <cstdio>

#include "core/query_parser.h"
#include "eval/ir_metrics.h"

namespace schemr {

Result<CorpusFixture> CorpusFixture::Build(const CorpusOptions& options) {
  CorpusFixture fixture;
  fixture.corpus = GenerateCorpus(options);
  std::unique_ptr<SchemaRepository> repository =
      SchemaRepository::OpenInMemory();
  fixture.ids.reserve(fixture.corpus.size());
  for (const GeneratedSchema& generated : fixture.corpus) {
    SCHEMR_ASSIGN_OR_RETURN(SchemaId id, repository->Insert(generated.schema));
    fixture.ids.push_back(id);
  }
  SCHEMR_ASSIGN_OR_RETURN(fixture.serving,
                          ServingCorpus::Create(std::move(repository)));
  fixture.relevance = BuildRelevanceMap(fixture.corpus, fixture.ids);
  return fixture;
}

Result<QualitySummary> EvaluateEngine(const SearchEngine& engine,
                                      const CorpusFixture& fixture,
                                      const std::vector<WorkloadQuery>& workload,
                                      const SearchEngineOptions& options) {
  std::vector<double> p5, p10, r10, mrr, ap, ndcg;
  for (const WorkloadQuery& wq : workload) {
    auto rel_it = fixture.relevance.find(wq.concept_id);
    if (rel_it == fixture.relevance.end() || rel_it->second.empty()) continue;
    RelevantSet relevant(rel_it->second.begin(), rel_it->second.end());

    SCHEMR_ASSIGN_OR_RETURN(QueryGraph query,
                            ParseQuery(wq.keywords, wq.ddl_fragment));
    SCHEMR_ASSIGN_OR_RETURN(std::vector<SearchResult> results,
                            engine.Search(query, options));
    std::vector<uint64_t> ranking;
    ranking.reserve(results.size());
    for (const SearchResult& r : results) ranking.push_back(r.schema_id);

    p5.push_back(PrecisionAtK(ranking, relevant, 5));
    p10.push_back(PrecisionAtK(ranking, relevant, 10));
    r10.push_back(RecallAtK(ranking, relevant, 10));
    mrr.push_back(ReciprocalRank(ranking, relevant));
    ap.push_back(AveragePrecision(ranking, relevant));
    ndcg.push_back(NdcgAtK(ranking, relevant, 10));
  }
  QualitySummary summary;
  summary.precision_at_5 = Mean(p5);
  summary.precision_at_10 = Mean(p10);
  summary.recall_at_10 = Mean(r10);
  summary.mrr = Mean(mrr);
  summary.map = Mean(ap);
  summary.ndcg_at_10 = Mean(ndcg);
  summary.num_queries = p5.size();
  return summary;
}

std::string FormatQuality(const QualitySummary& summary) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "P@5=%.3f P@10=%.3f R@10=%.3f MRR=%.3f MAP=%.3f "
                "nDCG@10=%.3f (n=%zu)",
                summary.precision_at_5, summary.precision_at_10,
                summary.recall_at_10, summary.mrr, summary.map,
                summary.ndcg_at_10, summary.num_queries);
  return buf;
}

}  // namespace schemr
