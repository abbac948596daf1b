// Tests for the codebook (semantic types and units) and its ensemble
// matcher, plus result pagination.

#include <gtest/gtest.h>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "match/codebook.h"
#include "match/features.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"

namespace schemr {
namespace {

Element Attr(const std::string& name, DataType type = DataType::kString,
             bool pk = false) {
  Element e;
  e.name = name;
  e.kind = ElementKind::kAttribute;
  e.type = type;
  e.primary_key = pk;
  return e;
}

// --- classification -----------------------------------------------------------

TEST(CodebookTest, UnitSuffixesClassifyAndRecordUnit) {
  const Codebook& codebook = Codebook::Default();
  CodebookEntry height = codebook.Classify(Attr("height_cm", DataType::kDouble));
  EXPECT_EQ(height.semantic, SemanticType::kLength);
  EXPECT_EQ(height.unit, "cm");
  EXPECT_GT(height.confidence, 0.9);

  CodebookEntry weight = codebook.Classify(Attr("weightKg", DataType::kDouble));
  EXPECT_EQ(weight.semantic, SemanticType::kMass);
  EXPECT_EQ(weight.unit, "kg");

  CodebookEntry price = codebook.Classify(Attr("price_usd", DataType::kDecimal));
  EXPECT_EQ(price.semantic, SemanticType::kMoney);
  EXPECT_EQ(price.unit, "usd");

  CodebookEntry pct = codebook.Classify(Attr("adherence_percent"));
  EXPECT_EQ(pct.semantic, SemanticType::kPercentage);
}

TEST(CodebookTest, GeographicAndContactKeywords) {
  const Codebook& codebook = Codebook::Default();
  EXPECT_EQ(codebook.Classify(Attr("latitude", DataType::kDouble)).semantic,
            SemanticType::kGeoLatitude);
  EXPECT_EQ(codebook.Classify(Attr("lat", DataType::kDouble)).semantic,
            SemanticType::kGeoLatitude);
  EXPECT_EQ(codebook.Classify(Attr("lng", DataType::kDouble)).semantic,
            SemanticType::kGeoLongitude);
  EXPECT_EQ(codebook.Classify(Attr("contact_email")).semantic,
            SemanticType::kEmail);
  EXPECT_EQ(codebook.Classify(Attr("phone_number")).semantic,
            SemanticType::kPhone);  // "number" yields identifier? no: phone first
  EXPECT_EQ(codebook.Classify(Attr("website")).semantic, SemanticType::kUrl);
}

TEST(CodebookTest, TemporalByDeclaredTypeAndName) {
  const Codebook& codebook = Codebook::Default();
  EXPECT_EQ(codebook.Classify(Attr("anything", DataType::kDate)).semantic,
            SemanticType::kDate);
  EXPECT_EQ(codebook.Classify(Attr("x", DataType::kTime)).semantic,
            SemanticType::kTime);
  EXPECT_EQ(codebook.Classify(Attr("x", DataType::kDateTime)).semantic,
            SemanticType::kDateTime);
  // String-typed but date-named.
  EXPECT_EQ(codebook.Classify(Attr("visit_date")).semantic,
            SemanticType::kDate);
  EXPECT_EQ(codebook.Classify(Attr("dob")).semantic, SemanticType::kDate);
}

TEST(CodebookTest, IdentifiersAndNames) {
  const Codebook& codebook = Codebook::Default();
  EXPECT_EQ(codebook.Classify(Attr("patient_id", DataType::kInt64)).semantic,
            SemanticType::kIdentifier);
  EXPECT_EQ(
      codebook.Classify(Attr("row", DataType::kInt64, /*pk=*/true)).semantic,
      SemanticType::kIdentifier);
  EXPECT_EQ(codebook.Classify(Attr("isbn")).semantic,
            SemanticType::kIdentifier);
  EXPECT_EQ(codebook.Classify(Attr("first_name")).semantic,
            SemanticType::kPersonName);
  EXPECT_EQ(codebook.Classify(Attr("surname")).semantic,
            SemanticType::kPersonName);
}

TEST(CodebookTest, UnknownsAndEntities) {
  const Codebook& codebook = Codebook::Default();
  EXPECT_EQ(codebook.Classify(Attr("flavor")).semantic,
            SemanticType::kUnknown);
  EXPECT_DOUBLE_EQ(codebook.Classify(Attr("flavor")).confidence, 0.0);
  Element entity;
  entity.name = "latitude";  // entities are never classified
  entity.kind = ElementKind::kEntity;
  EXPECT_EQ(codebook.Classify(entity).semantic, SemanticType::kUnknown);
}

TEST(CodebookTest, AnnotateSchemaSkipsUnknowns) {
  Schema schema = SchemaBuilder("site")
                      .Entity("station")
                      .Attribute("station_id", DataType::kInt64)
                      .PrimaryKey()
                      .Attribute("latitude", DataType::kDouble)
                      .Attribute("flavor")
                      .Build();
  std::vector<AnnotatedElement> notes =
      Codebook::Default().AnnotateSchema(schema);
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_EQ(notes[0].entry.semantic, SemanticType::kIdentifier);
  EXPECT_EQ(notes[1].entry.semantic, SemanticType::kGeoLatitude);
}

TEST(CodebookTest, SemanticTypeNamesAreStable) {
  EXPECT_STREQ(SemanticTypeName(SemanticType::kGeoLatitude), "latitude");
  EXPECT_STREQ(SemanticTypeName(SemanticType::kMoney), "money");
  EXPECT_STREQ(SemanticTypeName(SemanticType::kUnknown), "unknown");
}

// --- matcher --------------------------------------------------------------------

TEST(CodebookMatcherTest, EntrySimilarityRules) {
  CodebookEntry lat{SemanticType::kGeoLatitude, "", 0.9};
  CodebookEntry lat2{SemanticType::kGeoLatitude, "", 0.7};
  CodebookEntry lon{SemanticType::kGeoLongitude, "", 0.9};
  CodebookEntry unknown{};
  EXPECT_DOUBLE_EQ(CodebookMatcher::EntrySimilarity(lat, lat2), 0.7);
  EXPECT_DOUBLE_EQ(CodebookMatcher::EntrySimilarity(lat, lon), 0.0);
  EXPECT_DOUBLE_EQ(CodebookMatcher::EntrySimilarity(lat, unknown), 0.3);

  CodebookEntry cm{SemanticType::kLength, "cm", 0.95};
  CodebookEntry inches{SemanticType::kLength, "inches", 0.95};
  EXPECT_NEAR(CodebookMatcher::EntrySimilarity(cm, inches), 0.95 * 0.85,
              1e-12);
  EXPECT_DOUBLE_EQ(CodebookMatcher::EntrySimilarity(cm, cm), 0.95);
}

TEST(CodebookMatcherTest, DisambiguatesDivergentNames) {
  // "y_coordinate"? No -- a clearer case: query "height_cm" matches
  // candidate "stature_mm" (same semantic, unit differs) above candidate
  // "height_year"... use realistic pairs: lat/latitude vs lon/longitude.
  Schema query = SchemaBuilder("q")
                     .Entity("site")
                     .Attribute("lat", DataType::kDouble)
                     .Build();
  Schema candidate = SchemaBuilder("c")
                         .Entity("station")
                         .Attribute("latitude", DataType::kDouble)
                         .Attribute("longitude", DataType::kDouble)
                         .Build();
  CodebookMatcher matcher;
  SimilarityMatrix m =
      matcher.Match(query, candidate, PairFeatures(query, candidate).context());
  auto q_lat = *query.FindByName("lat");
  auto c_lat = *candidate.FindByName("latitude");
  auto c_lon = *candidate.FindByName("longitude");
  EXPECT_GT(m.at(q_lat, c_lat), 0.5);
  EXPECT_DOUBLE_EQ(m.at(q_lat, c_lon), 0.0);  // conflicting semantics
}

// --- pagination ------------------------------------------------------------------

TEST(SearchEnginePagingTest, OffsetWalksTheRanking) {
  auto repo = SchemaRepository::OpenInMemory();
  for (int i = 0; i < 6; ++i) {
    (void)*repo->Insert(SchemaBuilder("patient_data_" + std::to_string(i))
                            .Entity("patient")
                            .Attribute("height")
                            .Build());
  }
  auto corpus = ServingCorpus::Create(std::move(repo));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  SearchEngine engine(corpus->get());

  SearchEngineOptions all;
  all.top_k = 6;
  auto full = engine.SearchKeywords("patient height", all);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), 6u);

  SearchEngineOptions page2;
  page2.top_k = 2;
  page2.offset = 2;
  auto page = engine.SearchKeywords("patient height", page2);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->size(), 2u);
  EXPECT_EQ((*page)[0].schema_id, (*full)[2].schema_id);
  EXPECT_EQ((*page)[1].schema_id, (*full)[3].schema_id);

  SearchEngineOptions beyond;
  beyond.offset = 100;
  auto empty = engine.SearchKeywords("patient height", beyond);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace schemr
