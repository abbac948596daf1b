// Web-table corpus preparation and exploration (paper Sec. Applications).
//
// Reproduces the corpus pipeline: generate a raw synthetic "crawl" of web
// tables, apply the paper's filter (drop non-alphabetic headers,
// singleton schemas, and schemas with ≤3 elements), load the survivors
// into a repository, index them, and run a few exploratory searches --
// demonstrating schema search over web-extracted one-table schemas rather
// than curated relational designs.
//
// Usage: corpus_explorer [num_raw_tables]   (default 20000)

#include <cstdio>
#include <cstdlib>

#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "corpus/web_tables.h"
#include "repo/schema_repository.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  size_t num_tables = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

  schemr::WebTableGenOptions gen_options;
  gen_options.num_tables = num_tables;
  schemr::Timer timer;
  std::vector<schemr::RawWebTable> raw =
      schemr::GenerateRawWebTables(gen_options);
  std::printf("generated %zu raw web tables in %.1f ms\n", raw.size(),
              timer.ElapsedMillis());

  timer.Reset();
  schemr::WebTableFilterStats stats;
  std::vector<schemr::Schema> schemas = schemr::FilterWebTables(raw, &stats);
  std::printf(
      "filter: input=%zu  non-alphabetic=%zu  trivial(<=3)=%zu  "
      "singleton=%zu  duplicates=%zu  kept=%zu  (%.1f ms)\n",
      stats.input, stats.dropped_non_alphabetic, stats.dropped_trivial,
      stats.dropped_singleton, stats.duplicates_collapsed, stats.kept,
      timer.ElapsedMillis());

  auto repo = schemr::SchemaRepository::OpenInMemory();
  for (schemr::Schema& schema : schemas) {
    auto inserted = repo->Insert(std::move(schema));
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert failed: %s\n",
                   inserted.status().ToString().c_str());
      return 1;
    }
  }

  timer.Reset();
  auto corpus = schemr::ServingCorpus::Create(std::move(repo));
  if (!corpus.ok()) {
    std::fprintf(stderr, "indexing failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  const auto snapshot = (*corpus)->Snapshot();
  std::printf("indexed %zu schemas in %.1f ms (%zu distinct terms)\n\n",
              snapshot->index->NumDocs(), timer.ElapsedMillis(),
              snapshot->index->NumTerms());

  schemr::SearchEngine engine(corpus->get());
  const char* queries[] = {
      "patient gender diagnosis",
      "species site observation count",
      "customer order total amount",
      "student course grade",
      "account balance transaction",
  };
  for (const char* keywords : queries) {
    timer.Reset();
    auto results = engine.SearchKeywords(keywords);
    double elapsed_ms = timer.ElapsedMillis();
    if (!results.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    std::printf("query \"%s\" (%.1f ms):\n", keywords, elapsed_ms);
    int rank = 1;
    for (const schemr::SearchResult& r : *results) {
      if (rank > 3) break;
      std::printf("  %d. %-28s score=%.3f matches=%zu attrs=%zu\n", rank++,
                  r.name.c_str(), r.score, r.num_matches, r.num_attributes);
    }
    if (results->empty()) std::printf("  (no results)\n");
  }
  return 0;
}
