// The benchmark's inputs are a pure function of the workload and seed:
// the same seed gives byte-identical request bodies and ingested schemas,
// a different seed gives different ones.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "inputs.h"
#include "schema/schema_codec.h"

namespace perfbench {
namespace {

std::vector<std::string> Encoded(const std::vector<schemr::Schema>& schemas) {
  std::vector<std::string> out;
  for (const schemr::Schema& schema : schemas) {
    out.push_back(schemr::EncodeSchema(schema));
  }
  return out;
}

/// The first `count` schemas of the seed's ingest stream, encoded.
std::vector<std::string> IngestSchemas(uint64_t seed, size_t count) {
  SchemaStream stream(seed);
  std::vector<schemr::Schema> schemas;
  for (size_t i = 0; i < count; ++i) schemas.push_back(stream.Next());
  return Encoded(schemas);
}

/// Request bodies in send order: warm-up, then timed requests taken in
/// parts of the given sizes.
std::vector<std::string> SentBodies(Workload workload, uint64_t seed,
                                    const std::vector<size_t>& parts) {
  RequestStream stream(workload, seed);
  std::vector<std::string> out;
  for (uint32_t i : stream.warmup().sequence) {
    out.push_back(stream.warmup().bodies[i]);
  }
  for (size_t count : parts) {
    const RequestPlan plan = stream.Next(count);
    for (uint32_t i : plan.sequence) out.push_back(plan.bodies[i]);
  }
  return out;
}

constexpr Workload kWorkloads[] = {Workload::kByExample, Workload::kBrowse,
                                   Workload::kIngest};

TEST(InputsTest, SameSeedGivesIdenticalRequests) {
  for (Workload workload : kWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    EXPECT_EQ(SentBodies(workload, 7, {100, 200}),
              SentBodies(workload, 7, {100, 200}));
  }
}

TEST(InputsTest, RequestsDoNotDependOnPartSizes) {
  for (Workload workload : kWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    EXPECT_EQ(SentBodies(workload, 7, {300}),
              SentBodies(workload, 7, {100, 1, 199}));
  }
}

TEST(InputsTest, DifferentSeedGivesDifferentRequests) {
  for (Workload workload : kWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    EXPECT_NE(SentBodies(workload, 7, {300}), SentBodies(workload, 8, {300}));
  }
}

TEST(InputsTest, SameSeedGivesIdenticalSchemas) {
  // 50 crosses a generation chunk boundary.
  EXPECT_EQ(IngestSchemas(7, 50), IngestSchemas(7, 50));
}

TEST(InputsTest, DifferentSeedGivesDifferentSchemas) {
  EXPECT_NE(IngestSchemas(7, 50), IngestSchemas(8, 50));
}

TEST(InputsTest, IngestSchemasHaveDistinctNames) {
  SchemaStream stream(7);
  std::set<std::string> names;
  for (int i = 0; i < 70; ++i) names.insert(stream.Next().name());
  EXPECT_EQ(names.size(), 70u);
}

TEST(InputsTest, CorpusIsFixed) {
  const std::vector<std::string> corpus = Encoded(CorpusSchemas());
  EXPECT_EQ(corpus.size(), kCorpusSchemas);
  EXPECT_EQ(corpus, Encoded(CorpusSchemas()));
}

TEST(InputsTest, WorkloadShapes) {
  // byexample: every request distinct, warm-up and parts alike, and
  // carrying a fragment.
  RequestStream byexample(Workload::kByExample, 3);
  std::vector<RequestPlan> parts = {byexample.warmup(), byexample.Next(200),
                                    byexample.Next(300)};
  std::set<std::string> seen;
  size_t sent = 0;
  for (const RequestPlan& plan : parts) {
    EXPECT_EQ(plan.sequence.size(), plan.distinct.size());
    seen.insert(plan.bodies.begin(), plan.bodies.end());
    sent += plan.bodies.size();
    for (const schemr::SearchRequest& request : plan.distinct) {
      EXPECT_FALSE(request.fragment.empty());
      EXPECT_EQ(request.top_k, 10u);
      EXPECT_EQ(request.candidate_pool, 50u);
      EXPECT_EQ(request.prefilter, 0.0);
    }
  }
  EXPECT_EQ(seen.size(), sent);

  // browse: keyword-only, a popular set half the result cache, and a
  // skewed draw over it.
  RequestStream stream(Workload::kBrowse, 3);
  EXPECT_EQ(stream.warmup().distinct.size(), kResultCacheCapacity / 2);
  const RequestPlan browse = stream.Next(5000);
  EXPECT_EQ(browse.bodies, stream.warmup().bodies);
  for (const schemr::SearchRequest& request : browse.distinct) {
    EXPECT_TRUE(request.fragment.empty());
  }
  std::vector<size_t> draws(browse.distinct.size(), 0);
  for (uint32_t i : browse.sequence) ++draws[i];
  EXPECT_GT(draws[0], 10 * draws.back() + 1);

  // ingest: distinct, about 30% with a fragment.
  const RequestPlan ingest = RequestStream(Workload::kIngest, 3).Next(2000);
  size_t fragments = 0;
  for (const schemr::SearchRequest& request : ingest.distinct) {
    if (!request.fragment.empty()) ++fragments;
  }
  const double share = static_cast<double>(fragments) /
                       static_cast<double>(ingest.distinct.size());
  EXPECT_GT(share, 0.25);
  EXPECT_LT(share, 0.35);
}

TEST(InputsTest, ProbesAreFixedPerSeed) {
  auto bodies = [](uint64_t seed) {
    std::vector<std::string> out;
    for (const schemr::SearchRequest& request : ProbeRequests(seed)) {
      out.push_back(schemr::SearchRequestToXml(request));
    }
    return out;
  };
  EXPECT_EQ(bodies(5), bodies(5));
  EXPECT_NE(bodies(5), bodies(6));
}

}  // namespace
}  // namespace perfbench
