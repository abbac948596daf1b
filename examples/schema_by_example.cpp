// Search by example with an XSD fragment, and a look inside the match
// engine.
//
// Demonstrates the second query format of the paper ("uploading a DDL or
// XSD"): a hierarchical XSD fragment queries a mixed corpus; for the top
// hit the example prints the per-matcher similarity matrices (name,
// context, type, structure) and writes tree/radial SVG and DOT renderings
// to disk -- the artifacts a GUI would display.
//
// Usage: schema_by_example [output_prefix]   (default: by_example)

#include <cstdio>
#include <fstream>

#include "core/query_parser.h"
#include "eval/harness.h"
#include "match/features.h"
#include "parse/xsd_importer.h"
#include "viz/dot_writer.h"
#include "viz/layout.h"
#include "viz/svg_writer.h"

namespace {

constexpr const char* kXsdFragment = R"xml(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="observation">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="site_name" type="xs:string"/>
        <xs:element name="species" type="xs:string"/>
        <xs:element name="count" type="xs:int"/>
        <xs:element name="observed_at" type="xs:dateTime"/>
      </xs:sequence>
      <xs:attribute name="observer" type="xs:string"/>
    </xs:complexType>
  </xs:element>
</xs:schema>
)xml";

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), contents.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefix = argc > 1 ? argv[1] : "by_example";

  schemr::CorpusOptions corpus_options;
  corpus_options.num_schemas = 600;
  corpus_options.seed = 11;
  auto fixture = schemr::CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "corpus build failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  // Build the query graph from the XSD alone: pure search-by-example.
  auto query = schemr::ParseQuery("", kXsdFragment);
  if (!query.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("query graph: %s\n", query->ToString().c_str());

  schemr::SearchEngine engine(fixture->serving.get());
  auto results = engine.Search(*query);
  if (!results.ok() || results->empty()) {
    std::fprintf(stderr, "search failed or empty\n");
    return 1;
  }
  std::printf("\ntop results for the XSD fragment:\n");
  int rank = 1;
  for (const schemr::SearchResult& r : *results) {
    std::printf("  %d. %-26s score=%.3f tightness=%.3f matches=%zu\n",
                rank++, r.name.c_str(), r.score, r.tightness, r.num_matches);
  }

  // Inspect the ensemble on the best hit.
  const schemr::SearchResult& top = results->front();
  auto top_schema = fixture->repository()->Get(top.schema_id);
  if (!top_schema.ok()) return 1;
  schemr::MatcherEnsemble ensemble = schemr::MatcherEnsemble::Default();
  schemr::EnsembleResult ensemble_result = ensemble.Match(
      query->AsSchema(), *top_schema,
      schemr::PairFeatures(query->AsSchema(), *top_schema).context());
  std::printf("\nper-matcher mean similarity vs '%s':\n",
              top_schema->name().c_str());
  for (size_t m = 0; m < ensemble_result.matcher_names.size(); ++m) {
    std::printf("  %-10s %.3f\n", ensemble_result.matcher_names[m].c_str(),
                ensemble_result.per_matcher[m].Mean());
  }
  std::printf("  %-10s %.3f\n", "combined", ensemble_result.combined.Mean());

  // Render the hit in both layouts plus DOT.
  std::unordered_map<schemr::ElementId, double> scores;
  for (const schemr::MatchedElement& m : top.matched_elements) {
    scores[m.element] = m.score;
  }
  schemr::SchemaGraphView tree_view =
      schemr::BuildGraphView(*top_schema, scores);
  schemr::ApplyTreeLayout(&tree_view);
  WriteFile(prefix + "_tree.svg", schemr::WriteSvg(tree_view));

  schemr::SchemaGraphView radial_view =
      schemr::BuildGraphView(*top_schema, scores);
  schemr::ApplyRadialLayout(&radial_view);
  WriteFile(prefix + "_radial.svg", schemr::WriteSvg(radial_view));

  WriteFile(prefix + ".dot", schemr::WriteDot(tree_view));
  return 0;
}
