// Robustness and concurrency coverage: thread-safe repository access,
// query-coverage arithmetic, deterministic generators, service escaping,
// and empty-input edge cases across the stack.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/query_parser.h"
#include "core/tightness_of_fit.h"
#include "corpus/web_tables.h"
#include "core/serving_corpus.h"
#include "parse/xml_parser.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "service/schemr_service.h"
#include "viz/html_report.h"

namespace schemr {
namespace {

// --- QueryCoverage ---------------------------------------------------------------

TEST(QueryCoverageTest, CountsCoveredRows) {
  SimilarityMatrix m(4, 3);
  m.set(0, 0, 0.9);   // row 0 covered
  m.set(1, 2, 0.29);  // row 1 below threshold
  m.set(2, 1, 0.3);   // row 2 exactly at threshold
  // row 3 empty
  EXPECT_DOUBLE_EQ(QueryCoverage(m, 0.3), 0.5);
  EXPECT_DOUBLE_EQ(QueryCoverage(m, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(QueryCoverage(m, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QueryCoverage(SimilarityMatrix(), 0.3), 1.0);
}

TEST(QueryCoverageTest, CoverageScalingCanBeDisabled) {
  // One of two query rows matches: coverage halves the score unless
  // disabled.
  Schema schema = SchemaBuilder("s").Entity("e").Attribute("a").Build();
  SimilarityMatrix m(2, schema.size());
  m.set(0, 1, 0.8);
  TightnessOptions scaled;
  TightnessOptions unscaled;
  unscaled.scale_by_query_coverage = false;
  double with = ComputeTightnessOfFit(schema, m, scaled).score;
  double without = ComputeTightnessOfFit(schema, m, unscaled).score;
  EXPECT_NEAR(with, without / 2.0, 1e-12);
}

// --- repository thread safety -------------------------------------------------------

TEST(RepositoryConcurrencyTest, ParallelReadersAndWriters) {
  auto repo = SchemaRepository::OpenInMemory();
  // Seed with some schemas.
  std::vector<SchemaId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(*repo->Insert(SchemaBuilder("seed" + std::to_string(i))
                                    .Entity("e")
                                    .Attribute("a")
                                    .Build()));
  }
  std::atomic<bool> failed{false};
  auto writer = [&repo, &failed](int thread_id) {
    for (int i = 0; i < 50; ++i) {
      Schema schema = SchemaBuilder("w" + std::to_string(thread_id) + "_" +
                                    std::to_string(i))
                          .Entity("e")
                          .Attribute("a")
                          .Build();
      if (!repo->Insert(std::move(schema)).ok()) failed = true;
    }
  };
  auto reader = [&repo, &ids, &failed] {
    for (int i = 0; i < 200; ++i) {
      auto schema = repo->Get(ids[static_cast<size_t>(i) % ids.size()]);
      if (!schema.ok()) failed = true;
      if (!repo->ListAll().ok()) failed = true;
    }
  };
  auto annotator = [&repo, &ids, &failed] {
    for (int i = 0; i < 100; ++i) {
      SchemaId id = ids[static_cast<size_t>(i) % ids.size()];
      if (!repo->RecordUsage(id).ok()) failed = true;
      if (!repo->GetUsageCount(id).ok()) failed = true;
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 1);
  threads.emplace_back(writer, 2);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  threads.emplace_back(annotator);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(repo->Size(), 10u + 2u * 50u);
  // Usage counters all accounted for (one annotator thread, serialized).
  uint64_t total_usage = 0;
  for (SchemaId id : ids) total_usage += *repo->GetUsageCount(id);
  EXPECT_EQ(total_usage, 100u);
}

TEST(SearchConcurrencyTest, ParallelSearchesAgree) {
  auto repo = SchemaRepository::OpenInMemory();
  for (int i = 0; i < 20; ++i) {
    (void)*repo->Insert(SchemaBuilder("s" + std::to_string(i))
                            .Entity("patient")
                            .Attribute("height")
                            .Attribute("gender")
                            .Build());
  }
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());
  auto reference = engine.SearchKeywords("patient height");
  ASSERT_TRUE(reference.ok());

  std::atomic<bool> failed{false};
  auto searcher = [&engine, &reference, &failed] {
    for (int i = 0; i < 20; ++i) {
      auto results = engine.SearchKeywords("patient height");
      if (!results.ok() || results->size() != reference->size()) {
        failed = true;
        return;
      }
      for (size_t j = 0; j < results->size(); ++j) {
        if ((*results)[j].schema_id != (*reference)[j].schema_id) {
          failed = true;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(searcher);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
}

// --- determinism of generators --------------------------------------------------------

TEST(WebTablesDeterminismTest, SameSeedSameCrawl) {
  WebTableGenOptions options;
  options.num_tables = 500;
  options.seed = 99;
  auto a = GenerateRawWebTables(options);
  auto b = GenerateRawWebTables(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].caption, b[i].caption);
    EXPECT_EQ(a[i].columns, b[i].columns);
  }
}

// --- service escaping and empty inputs -------------------------------------------------

TEST(ServiceRobustnessTest, HostileSchemaNamesAreEscapedEverywhere) {
  auto repo = SchemaRepository::OpenInMemory();
  Schema hostile("evil \"<schema>\" & 'name'");
  ElementId e = hostile.AddEntity("entity <b>bold</b>");
  hostile.AddAttribute("attr & co", e);
  hostile.set_description("desc with <tags> & \"quotes\"");
  SchemaId id = *repo->Insert(std::move(hostile));

  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());

  SearchRequest request;
  request.keywords = "evil schema entity";
  auto xml = service.SearchXml(request);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_TRUE(ParseXml(*xml).ok()) << *xml;

  VisualizationRequest viz;
  viz.schema_id = id;
  auto graphml = service.GetSchemaGraphMl(viz);
  ASSERT_TRUE(graphml.ok());
  EXPECT_TRUE(ParseXml(*graphml).ok());
  auto svg = service.GetSchemaSvg(viz);
  ASSERT_TRUE(svg.ok());
  EXPECT_TRUE(ParseXml(*svg).ok());
}

TEST(ServiceRobustnessTest, EmptyRepositorySearches) {
  auto repo = SchemaRepository::OpenInMemory();
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SchemrService service(corpus->get());
  SearchRequest request;
  request.keywords = "anything";
  auto results = service.Search(request);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  auto html = service.RenderHtmlReport(request);
  ASSERT_TRUE(html.ok());  // an empty report is still a valid page
}

TEST(HtmlReportTest, EmptyRowsAndPanels) {
  std::string html = WriteHtmlReport("Empty", "no results", {}, {});
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("no results"), std::string::npos);
}

// --- query parser format override -------------------------------------------------------

TEST(QueryParserTest, ExplicitFormatOverridesDetection) {
  // Force XSD parsing of something that does not start with '<': must
  // fail as XSD rather than silently trying DDL.
  auto forced = ParseQuery("kw", "CREATE TABLE t (x INT);",
                           FragmentFormat::kXsd);
  EXPECT_FALSE(forced.ok());
  // And the reverse: DDL parsing of XML fails as DDL.
  auto forced_ddl = ParseQuery("kw", "<xs:schema/>", FragmentFormat::kDdl);
  EXPECT_FALSE(forced_ddl.ok());
}

}  // namespace
}  // namespace schemr
