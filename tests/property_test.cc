// Cross-module property tests: invariants that must hold on *generated*
// inputs, swept over seeds with parameterized gtest. These complement the
// per-module unit tests by exercising combinations no hand-written case
// covers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/query_parser.h"
#include "core/tightness_of_fit.h"
#include "eval/harness.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "parse/ddl_parser.h"
#include "parse/ddl_writer.h"
#include "parse/xml_parser.h"
#include "parse/xsd_importer.h"
#include "parse/xsd_writer.h"
#include "util/rng.h"
#include "viz/graph_view.h"
#include "viz/graphml_writer.h"
#include "viz/layout.h"
#include "viz/svg_writer.h"

namespace schemr {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  CorpusOptions CorpusFor(size_t n) const {
    CorpusOptions options;
    options.num_schemas = n;
    options.seed = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// Self-retrieval: a schema queried by its own distinctive element names
// must rank itself at the very top.
TEST_P(SeededProperty, SelfRetrieval) {
  auto fixture = CorpusFixture::Build(CorpusFor(120));
  ASSERT_TRUE(fixture.ok());
  SearchEngine engine(fixture->serving.get());
  Rng rng(GetParam() ^ 0xABCD);

  for (int trial = 0; trial < 8; ++trial) {
    size_t pick = rng.NextBelow(fixture->corpus.size());
    const Schema& schema = fixture->corpus[pick].schema;
    // Query = the schema's own attribute names (up to 6).
    std::string keywords;
    size_t used = 0;
    for (ElementId id = 0; id < schema.size() && used < 6; ++id) {
      if (schema.element(id).kind != ElementKind::kAttribute) continue;
      keywords += schema.element(id).name + " ";
      ++used;
    }
    SearchEngineOptions options;
    options.top_k = 20;
    auto results = engine.SearchKeywords(keywords, options);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_FALSE(results->empty()) << keywords;
    // Sibling schemas generated from the same concept carry near-identical
    // vocabularies, so exact self-rank is ambiguous. The meaningful
    // property: the schema is retrieved, and the top of the ranking is
    // dominated by its own concept.
    const std::string& concept_id = fixture->corpus[pick].concept_id;
    const auto& relevant = fixture->relevance.at(concept_id);
    bool found = false;
    for (const SearchResult& r : *results) {
      if (r.schema_id == fixture->ids[pick]) found = true;
    }
    EXPECT_TRUE(found) << "schema " << schema.name()
                       << " not retrieved for its own attributes: "
                       << keywords;
    // Concepts share vocabulary (stations and survey sites both carry
    // latitude/longitude), so off-concept hits near the top can be
    // legitimate; but the query's own concept must appear in the top 3.
    size_t on_concept_top3 = 0;
    for (size_t i = 0; i < results->size() && i < 3; ++i) {
      on_concept_top3 += relevant.count((*results)[i].schema_id);
    }
    EXPECT_GE(on_concept_top3, 1u) << "no on-concept hit in the top 3 for: "
                                   << keywords;
  }
}

// Every matcher's matrix stays in [0,1] with the right shape, on real
// generated schema pairs.
TEST_P(SeededProperty, MatcherMatricesWellFormed) {
  CorpusOptions options = CorpusFor(20);
  std::vector<GeneratedSchema> corpus = GenerateCorpus(options);
  MatcherEnsemble ensemble = MatcherEnsemble::WithCodebook();
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const Schema& a = corpus[rng.NextBelow(corpus.size())].schema;
    const Schema& b = corpus[rng.NextBelow(corpus.size())].schema;
    EnsembleResult result = ensemble.Match(a, b, PairFeatures(a, b).context());
    for (const SimilarityMatrix& m : result.per_matcher) {
      ASSERT_EQ(m.rows(), a.size());
      ASSERT_EQ(m.cols(), b.size());
      for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t c = 0; c < m.cols(); ++c) {
          ASSERT_GE(m.at(r, c), 0.0);
          ASSERT_LE(m.at(r, c), 1.0);
        }
      }
    }
    // Combined never exceeds the max of its inputs per cell.
    for (size_t r = 0; r < result.combined.rows(); ++r) {
      for (size_t c = 0; c < result.combined.cols(); ++c) {
        double max_input = 0.0;
        for (const SimilarityMatrix& m : result.per_matcher) {
          max_input = std::max(max_input, m.at(r, c));
        }
        ASSERT_LE(result.combined.at(r, c), max_input + 1e-9);
      }
    }
  }
}

// Tightness-of-fit invariants on generated schemas with random score
// matrices: bounded by the best element score; adding foreign keys never
// lowers the score (penalties can only shrink from "unrelated" to
// "neighborhood").
TEST_P(SeededProperty, TightnessBoundsAndFkMonotonicity) {
  CorpusOptions options = CorpusFor(15);
  std::vector<GeneratedSchema> corpus = GenerateCorpus(options);
  Rng rng(GetParam() * 31);
  for (GeneratedSchema& g : corpus) {
    Schema& schema = g.schema;
    SimilarityMatrix m(3, schema.size());
    double max_score = 0.0;
    for (ElementId e = 0; e < schema.size(); ++e) {
      if (rng.NextBool(0.5)) {
        double s = rng.NextDouble();
        m.set(rng.NextBelow(3), e, s);
        if (s >= TightnessOptions{}.match_threshold) {
          max_score = std::max(max_score, s);
        }
      }
    }
    TightnessResult base = ComputeTightnessOfFit(schema, m);
    ASSERT_LE(base.score, max_score + 1e-9);
    ASSERT_GE(base.score, 0.0);

    // Fully connect all entities: no pair can still be "unrelated".
    Schema connected = schema;
    std::vector<ElementId> entities = connected.Entities();
    for (size_t i = 1; i < entities.size(); ++i) {
      ElementId attr = connected.AddAttribute(
          "link" + std::to_string(i), entities[i], DataType::kInt64);
      connected.AddForeignKey(attr, entities[0]);
    }
    // Matrix must grow to the new size (new columns scoreless).
    SimilarityMatrix m2(3, connected.size());
    for (ElementId e = 0; e < schema.size(); ++e) {
      for (size_t r = 0; r < 3; ++r) m2.set(r, e, m.at(r, e));
    }
    TightnessResult linked = ComputeTightnessOfFit(connected, m2);
    ASSERT_GE(linked.score, base.score - 1e-9)
        << "connecting entities lowered tightness for " << schema.name();
  }
}

// DDL round trip stability on every generated schema: parse(write(s))
// preserves names, types, keys, and FK count (hierarchy is flattened by
// design).
TEST_P(SeededProperty, DdlRoundTripOnGeneratedSchemas) {
  CorpusOptions options = CorpusFor(25);
  for (const GeneratedSchema& g : GenerateCorpus(options)) {
    // DDL cannot express nested entities; skip hierarchical ones.
    bool nested = false;
    for (ElementId e : g.schema.Entities()) {
      if (g.schema.element(e).parent != kNoElement) nested = true;
    }
    if (nested) continue;
    std::string ddl = WriteDdl(g.schema);
    auto round = ParseDdl(ddl, g.schema.name());
    ASSERT_TRUE(round.ok()) << round.status() << "\n" << ddl;
    EXPECT_EQ(round->NumEntities(), g.schema.NumEntities());
    EXPECT_EQ(round->NumAttributes(), g.schema.NumAttributes());
    EXPECT_EQ(round->foreign_keys().size(), g.schema.foreign_keys().size());
  }
}

// XSD round trip on generated schemas (hierarchy preserved).
TEST_P(SeededProperty, XsdRoundTripOnGeneratedSchemas) {
  CorpusOptions options = CorpusFor(25);
  for (const GeneratedSchema& g : GenerateCorpus(options)) {
    std::string xsd = WriteXsd(g.schema);
    auto round = ParseXsd(xsd, g.schema.name());
    ASSERT_TRUE(round.ok()) << round.status() << "\n" << xsd;
    EXPECT_EQ(round->NumEntities(), g.schema.NumEntities());
    EXPECT_EQ(round->NumAttributes(), g.schema.NumAttributes());
    for (ElementId i = 0; i < g.schema.size(); ++i) {
      EXPECT_EQ(round->element(i).name, g.schema.element(i).name);
    }
  }
}

// Parser robustness: mutated (bit-flipped / truncated) valid inputs must
// return clean errors or succeed -- never crash.
TEST_P(SeededProperty, ParsersSurviveMutatedInput) {
  CorpusOptions options = CorpusFor(5);
  std::vector<GeneratedSchema> corpus = GenerateCorpus(options);
  Rng rng(GetParam() * 7919);
  for (const GeneratedSchema& g : corpus) {
    std::string ddl = WriteDdl(g.schema);
    std::string xsd = WriteXsd(g.schema);
    for (int mutation = 0; mutation < 20; ++mutation) {
      std::string mutated_ddl = ddl;
      std::string mutated_xsd = xsd;
      // Flip a few characters.
      for (int k = 0; k < 3; ++k) {
        if (!mutated_ddl.empty()) {
          mutated_ddl[rng.NextBelow(mutated_ddl.size())] =
              static_cast<char>(rng.NextBelow(128));
        }
        if (!mutated_xsd.empty()) {
          mutated_xsd[rng.NextBelow(mutated_xsd.size())] =
              static_cast<char>(rng.NextBelow(128));
        }
      }
      // Or truncate.
      if (rng.NextBool(0.3)) {
        mutated_ddl.resize(rng.NextBelow(mutated_ddl.size() + 1));
        mutated_xsd.resize(rng.NextBelow(mutated_xsd.size() + 1));
      }
      // Must not crash; if parsing succeeds the result must validate.
      auto ddl_result = ParseDdl(mutated_ddl, "fuzz");
      if (ddl_result.ok()) {
        EXPECT_TRUE(ddl_result->Validate().ok());
      }
      auto xsd_result = ParseXsd(mutated_xsd, "fuzz");
      if (xsd_result.ok()) {
        EXPECT_TRUE(xsd_result->Validate().ok());
      }
    }
  }
}

// Visualization invariants on generated schemas: GraphML parses, edges
// reference existing nodes, tree layout never overlaps within a level,
// SVG parses as XML.
TEST_P(SeededProperty, VisualizationInvariants) {
  CorpusOptions options = CorpusFor(15);
  for (const GeneratedSchema& g : GenerateCorpus(options)) {
    SchemaGraphView view = BuildGraphView(g.schema);
    for (const VizEdge& edge : view.edges) {
      ASSERT_LT(edge.from, view.nodes.size());
      ASSERT_LT(edge.to, view.nodes.size());
    }
    ApplyTreeLayout(&view);
    std::set<std::pair<size_t, long>> slots;
    for (const VizNode& node : view.nodes) {
      auto key = std::make_pair(node.depth, std::lround(node.x * 100));
      ASSERT_TRUE(slots.insert(key).second)
          << "layout overlap in " << g.schema.name();
    }
    ASSERT_TRUE(ParseXml(WriteGraphMl(view)).ok());
    ASSERT_TRUE(ParseXml(WriteSvg(view)).ok());
  }
}

// Search determinism: the same query against the same fixture returns
// byte-identical rankings and scores.
TEST_P(SeededProperty, SearchIsDeterministic) {
  auto fixture = CorpusFixture::Build(CorpusFor(80));
  ASSERT_TRUE(fixture.ok());
  SearchEngine engine(fixture->serving.get());
  auto query = ParseQuery("patient height gender diagnosis");
  ASSERT_TRUE(query.ok());
  auto first = engine.Search(*query);
  auto second = engine.Search(*query);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].schema_id, (*second)[i].schema_id);
    EXPECT_DOUBLE_EQ((*first)[i].score, (*second)[i].score);
  }
}

}  // namespace
}  // namespace schemr
