// Tests for the IR metrics and the shared experiment harness.

#include <gtest/gtest.h>

#include <cmath>

#include "eval/harness.h"
#include "eval/ir_metrics.h"

namespace schemr {
namespace {

const std::vector<uint64_t> kRanking = {10, 20, 30, 40, 50};

TEST(IrMetricsTest, PrecisionAtK) {
  RelevantSet relevant = {10, 30, 99};
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 1), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 5), 0.4);
  // k beyond the ranking clamps to its length.
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 100), 0.4);
  EXPECT_DOUBLE_EQ(PrecisionAtK({}, relevant, 5), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(kRanking, relevant, 0), 0.0);
}

TEST(IrMetricsTest, RecallAtK) {
  RelevantSet relevant = {10, 30, 99};
  EXPECT_DOUBLE_EQ(RecallAtK(kRanking, relevant, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(kRanking, relevant, 5), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(kRanking, {}, 5), 0.0);
}

TEST(IrMetricsTest, ReciprocalRank) {
  EXPECT_DOUBLE_EQ(ReciprocalRank(kRanking, {10}), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(kRanking, {30}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(kRanking, {50, 30}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(kRanking, {12345}), 0.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({}, {1}), 0.0);
}

TEST(IrMetricsTest, AveragePrecision) {
  // Relevant at ranks 1 and 3 of 3 relevant total:
  // AP = (1/1 + 2/3)/3.
  RelevantSet relevant = {10, 30, 999};
  EXPECT_NEAR(AveragePrecision(kRanking, relevant),
              (1.0 + 2.0 / 3.0) / 3.0, 1e-12);
  // Perfect ranking has AP 1.
  EXPECT_DOUBLE_EQ(AveragePrecision({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(AveragePrecision(kRanking, {}), 0.0);
}

TEST(IrMetricsTest, Ndcg) {
  // Relevant at positions 1 and 3: DCG = 1/log2(2) + 1/log2(4) = 1.5.
  // Ideal with 2 relevant in top 5: 1/log2(2) + 1/log2(3).
  RelevantSet relevant = {10, 30};
  double ideal = 1.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(NdcgAtK(kRanking, relevant, 5), 1.5 / ideal, 1e-12);
  EXPECT_DOUBLE_EQ(NdcgAtK({1, 2}, {1, 2}, 2), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(kRanking, {}, 5), 0.0);
  // nDCG is monotone in rank of the hit.
  EXPECT_GT(NdcgAtK({7, 8}, {7}, 2), NdcgAtK({8, 7}, {7}, 2));
}

TEST(IrMetricsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
}

TEST(HarnessTest, FixtureBuildsSearchableCorpus) {
  CorpusOptions options;
  options.num_schemas = 60;
  options.seed = 321;
  auto fixture = CorpusFixture::Build(options);
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  EXPECT_EQ(fixture->ids.size(), 60u);
  EXPECT_EQ(fixture->serving->Snapshot()->index->NumDocs(), 60u);
  EXPECT_EQ(fixture->serving->Snapshot()->match_features->size(), 60u);
  EXPECT_EQ(fixture->repository()->Size(), 60u);
  size_t mapped = 0;
  for (const auto& [concept_id, ids] : fixture->relevance) {
    mapped += ids.size();
  }
  EXPECT_EQ(mapped, 60u);
}

TEST(HarnessTest, EvaluateEngineProducesSaneMetrics) {
  CorpusOptions options;
  options.num_schemas = 150;
  options.seed = 77;
  auto fixture = CorpusFixture::Build(options);
  ASSERT_TRUE(fixture.ok());

  QueryWorkloadOptions workload_options;
  workload_options.num_queries = 20;
  workload_options.seed = 5;
  std::vector<WorkloadQuery> workload =
      GenerateQueryWorkload(workload_options);

  SearchEngine engine(fixture->serving.get());
  auto summary = EvaluateEngine(engine, *fixture, workload);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(summary->num_queries, 10u);
  // Ground-truth queries on a ground-truth corpus: quality must be well
  // above chance. These are loose lower bounds, not golden values.
  EXPECT_GT(summary->mrr, 0.5);
  EXPECT_GT(summary->precision_at_5, 0.3);
  // All metrics in range.
  for (double v : {summary->precision_at_5, summary->precision_at_10,
                   summary->recall_at_10, summary->mrr, summary->map,
                   summary->ndcg_at_10}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_FALSE(FormatQuality(*summary).empty());
}

}  // namespace
}  // namespace schemr
