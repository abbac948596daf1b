// Search-driven schema design (paper Applications section).
//
// "Integrating Schemr with a schema editor would allow for a new model
// development process, in which search results are iteratively used to
// augment a schema. In this process, we can also capture implicit
// semantic mappings between schema elements, information on schema
// re-use, and the provenance of new schema entities."
//
// This example plays that loop end to end: a designer's partial DDL draft
// queries a corpus; the top result yields (a) a captured element mapping,
// (b) ranked extension suggestions; the designer "accepts" the best
// suggestions, growing the draft; reuse is recorded as a usage event and
// a rating, which boosts the reused schema in the next search.

#include <cstdio>

#include "core/composer.h"
#include "core/query_parser.h"
#include "eval/harness.h"
#include "match/features.h"
#include "match/mapping.h"
#include "parse/ddl_writer.h"

int main() {
  schemr::CorpusOptions corpus_options;
  corpus_options.num_schemas = 500;
  corpus_options.seed = 77;
  auto fixture = schemr::CorpusFixture::Build(corpus_options);
  if (!fixture.ok()) {
    std::fprintf(stderr, "corpus failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  // The designer's partial draft (the paper's clinic scenario).
  const char* draft_ddl =
      "CREATE TABLE patient (\n"
      "  patient_id BIGINT PRIMARY KEY,\n"
      "  height DOUBLE,\n"
      "  gender VARCHAR(10)\n"
      ");";
  auto query = schemr::ParseQuery("", draft_ddl);
  if (!query.ok()) return 1;
  std::printf("draft schema:\n%s\n", draft_ddl);

  schemr::SearchEngine engine(fixture->serving.get());
  auto results = engine.Search(*query);
  if (!results.ok() || results->empty()) {
    std::fprintf(stderr, "search failed or empty\n");
    return 1;
  }
  const schemr::SearchResult& top = results->front();
  std::printf("best existing model: '%s' (score %.3f, %zu matches)\n\n",
              top.name.c_str(), top.score, top.num_matches);

  auto top_schema = fixture->repository()->Get(top.schema_id);
  if (!top_schema.ok()) return 1;

  // (a) Capture the implicit semantic mapping.
  schemr::MatcherEnsemble ensemble = schemr::MatcherEnsemble::Default();
  schemr::SimilarityMatrix combined =
      ensemble
          .Match(query->AsSchema(), *top_schema,
                 schemr::PairFeatures(query->AsSchema(), *top_schema).context())
          .combined;
  schemr::MappingOptions mapping_options;
  mapping_options.min_score = 0.4;
  auto mapping = schemr::ExtractMapping(combined, mapping_options);
  std::printf("captured element mapping (draft -> %s):\n%s\n",
              top_schema->name().c_str(),
              schemr::FormatMapping(mapping, query->AsSchema(), *top_schema)
                  .c_str());

  // (b) Extension suggestions from the uncovered parts of the result.
  auto suggestions = schemr::SuggestExtensions(*top_schema, combined,
                                               top.best_anchor);
  std::printf("suggested additions:\n");
  for (const schemr::ExtensionSuggestion& s : suggestions) {
    std::printf("  %-24s %-9s conf=%.2f  (from %s)\n", s.name.c_str(),
                schemr::DataTypeName(s.type), s.confidence,
                s.source_path.c_str());
  }

  // Accept the top three suggestions into the draft.
  schemr::Schema draft = query->AsSchema();
  auto entity = draft.FindByName("patient", schemr::ElementKind::kEntity);
  if (!entity) return 1;
  size_t accepted = 0;
  for (const schemr::ExtensionSuggestion& s : suggestions) {
    if (accepted == 3) break;
    if (schemr::ApplySuggestion(&draft, *entity, s).ok()) ++accepted;
  }
  draft.set_name("patient");  // the grown draft, exportable as DDL
  std::printf("\ndraft after accepting %zu suggestions:\n%s\n", accepted,
              schemr::WriteDdl(draft).c_str());

  // (c) Record reuse: usage + a rating; community signal boosts the
  // schema in subsequent searches.
  (void)fixture->repository()->RecordUsage(top.schema_id);
  (void)fixture->repository()->AddRating(top.schema_id, {"designer", 5});
  (void)fixture->repository()->AddComment(
      top.schema_id,
      {"designer", "reused as the basis for our new patient table", 1});

  schemr::SearchEngineOptions boosted;
  boosted.annotation_boost = 0.3;
  auto boosted_results =
      engine.SearchKeywords("patient height gender", boosted);
  if (boosted_results.ok() && !boosted_results->empty()) {
    std::printf("after recording reuse, '%s' ranks #1 of %zu for "
                "'patient height gender' (boosted score %.3f)\n",
                (*boosted_results)[0].name.c_str(), boosted_results->size(),
                (*boosted_results)[0].score);
  }
  return 0;
}
