// Golden behaviour of the search pipeline, pinned across commits and
// build types.
//
// tests/golden/ holds what the pipeline produced for the committed
// sample workload over the reference corpus -- the 120 schemas that
// `schemr seed <repo> --schemas 120 --seed 42` generates:
//
//   sample_workload.exact.xml        `schemr replay examples/sample_workload.xml
//                                     --repo <repo> --record ...` (exact mode)
//   sample_workload.prefilter10.xml  the same with --prefilter 0.10
//   sample_workload.matrix_hash      FNV-1a over the bit patterns of every
//                                    per-matcher and combined similarity
//                                    cell, for each workload query against
//                                    each candidate of its phase-1 pool
//
// The files were recorded once and are never regenerated: a change that
// moves a digest or a matrix cell changed the ranking function. The
// corpus is regenerated in-process and opened the way the CLI and the
// server open it (ServingCorpus::Open), once through the rebuild branch
// and once through the persisted-segment branch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/candidate_extractor.h"
#include "core/query_parser.h"
#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "obs/replay.h"
#include "repo/schema_repository.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

std::string GoldenPath(const std::string& name) {
  return std::string(SCHEMR_SOURCE_DIR) + "/tests/golden/" + name;
}

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("schemr_golden_" + std::to_string(::getpid())));
    fs::remove_all(*dir_);
    // What `schemr seed --schemas 120 --seed 42` inserts, in its order.
    auto repo = SchemaRepository::Open(dir_->string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    CorpusOptions options;
    options.num_schemas = 120;
    options.seed = 42;
    for (GeneratedSchema& generated : GenerateCorpus(options)) {
      ASSERT_TRUE((*repo)->Insert(std::move(generated.schema)).ok());
    }
  }

  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::unique_ptr<ServingCorpus> OpenCorpus() {
    auto corpus = ServingCorpus::Open(dir_->string());
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    return corpus.ok() ? std::move(corpus).value() : nullptr;
  }

  static std::vector<WorkloadEntry> Recording(const std::string& name) {
    auto workload = LoadWorkload(GoldenPath(name));
    EXPECT_TRUE(workload.ok()) << workload.status();
    return workload.ok() ? std::move(workload).value()
                         : std::vector<WorkloadEntry>{};
  }

  /// Replays both recordings at 1 and 4 engine threads.
  static void ExpectRecordingsHold(const ServingCorpus& corpus) {
    for (const char* name : {"sample_workload.exact.xml",
                             "sample_workload.prefilter10.xml"}) {
      const std::vector<WorkloadEntry> workload = Recording(name);
      ASSERT_EQ(workload.size(), 40u) << name;
      for (size_t engine_threads : {size_t{1}, size_t{4}}) {
        ReplayOptions options;
        options.engine_threads = engine_threads;
        auto report = ReplayWorkload(corpus.Snapshot(), workload, options);
        ASSERT_TRUE(report.ok()) << report.status();
        EXPECT_EQ(report->errors, 0u) << name;
        EXPECT_EQ(report->degraded, 0u) << name;
        EXPECT_EQ(report->digest_mismatches, 0u)
            << name << " at " << engine_threads << " engine threads";
      }
    }
  }

  static fs::path* dir_;
};

fs::path* GoldenTest::dir_ = nullptr;

/// FNV-1a, folded over 64-bit words.
struct CellHash {
  uint64_t value = 0xcbf29ce484222325ull;

  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (8 * i)) & 0xff;
      value *= 0x100000001b3ull;
    }
  }

  void Add(const SimilarityMatrix& matrix) {
    Add(matrix.rows());
    Add(matrix.cols());
    for (size_t r = 0; r < matrix.rows(); ++r) {
      for (size_t c = 0; c < matrix.cols(); ++c) {
        const double cell = matrix.at(r, c);
        uint64_t bits = 0;
        std::memcpy(&bits, &cell, sizeof(bits));
        Add(bits);
      }
    }
  }
};

TEST_F(GoldenTest, RecordedDigestsHoldThroughTheRebuildBranch) {
  fs::remove(*dir_ / "segment.idx");
  std::unique_ptr<ServingCorpus> corpus = OpenCorpus();
  ASSERT_NE(corpus, nullptr);
  EXPECT_TRUE(corpus->index_open_stats().rebuilt);
  ExpectRecordingsHold(*corpus);
}

TEST_F(GoldenTest, RecordedDigestsHoldThroughTheSegmentBranch) {
  { ASSERT_NE(OpenCorpus(), nullptr); }  // leaves a segment behind
  std::unique_ptr<ServingCorpus> corpus = OpenCorpus();
  ASSERT_NE(corpus, nullptr);
  EXPECT_FALSE(corpus->index_open_stats().rebuilt);
  ExpectRecordingsHold(*corpus);
}

TEST_F(GoldenTest, MatcherMatricesMatchTheRecordedHash) {
  std::unique_ptr<ServingCorpus> corpus = OpenCorpus();
  ASSERT_NE(corpus, nullptr);
  std::shared_ptr<const CorpusSnapshot> snapshot = corpus->Snapshot();
  const MatchFeatureCatalog& catalog = *snapshot->match_features;
  const MatcherEnsemble ensemble = MatcherEnsemble::Default();
  MatchScratch scratch;
  CellHash hash;
  size_t pairs = 0;
  for (const WorkloadEntry& entry : Recording("sample_workload.exact.xml")) {
    auto query = ParseQuery(entry.keywords, entry.fragment);
    ASSERT_TRUE(query.ok()) << query.status();
    CandidateExtractorOptions extraction;
    extraction.pool_size = entry.candidate_pool;
    const std::vector<Candidate> pool =
        CandidateExtractor(snapshot->index.get()).Extract(*query, extraction);
    const Schema& query_schema = query->AsSchema();
    auto query_features = BuildSchemaFeatures(query_schema, catalog.options());
    for (const Candidate& candidate : pool) {
      auto schema = snapshot->schemas->Get(candidate.schema_id);
      ASSERT_TRUE(schema.ok()) << schema.status();
      const SchemaFeatures* features = catalog.Find(candidate.schema_id);
      ASSERT_NE(features, nullptr);
      EnsembleResult result = ensemble.Match(
          query_schema, *schema,
          MatchContext{*query_features, *features, scratch});
      for (const SimilarityMatrix& matrix : result.per_matcher) {
        hash.Add(matrix);
      }
      hash.Add(result.combined);
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 1000u);

  std::ifstream in(GoldenPath("sample_workload.matrix_hash"));
  std::string recorded;
  in >> recorded;
  std::ostringstream computed;
  computed << std::hex << hash.value;
  EXPECT_EQ(computed.str(), recorded) << "over " << pairs << " pairs";
}

}  // namespace
}  // namespace schemr
