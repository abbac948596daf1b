// Tests for the signature pre-filter and columnar match features
// (DESIGN.md §16): packed-profile bit-identity with the text-level n-gram
// Dice, the approximate pre-filter's accounting, signature persistence
// (round-trip, corruption detection, rebuild), the serving corpus's
// catalog publication and ServingCorpus::Open's write-only-when-needed
// persistence, and the catalog/schema-view invariant under random
// mutation. The columnar path's scores themselves are pinned by the
// golden data in tests/golden/ (golden_test).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/result_cache.h"
#include "core/search_engine.h"
#include "core/serving_corpus.h"
#include "corpus/schema_generator.h"
#include "match/ensemble.h"
#include "match/features.h"
#include "match/signature.h"
#include "obs/replay.h"
#include "repo/schema_repository.h"
#include "schema/schema_builder.h"
#include "text/ngram.h"
#include "util/rng.h"

namespace schemr {
namespace {

namespace fs = std::filesystem;

Schema Clinic() {
  return SchemaBuilder("clinic")
      .Entity("patient")
      .Attribute("height", DataType::kDouble)
      .Attribute("gender", DataType::kString)
      .Attribute("date_of_birth", DataType::kDate)
      .Entity("visit")
      .Attribute("diagnosis")
      .Attribute("patient_id", DataType::kInt64)
      .Build();
}

Schema Shop() {
  return SchemaBuilder("shop")
      .Entity("customer")
      .Attribute("name")
      .Attribute("email")
      .Entity("order")
      .Attribute("total", DataType::kDecimal)
      .Build();
}

/// A small but diverse generated corpus: abbreviation noise, dropped
/// attributes, shared concepts — exactly the shapes the matchers were
/// built for.
std::vector<Schema> SmallCorpus(size_t n, uint64_t seed = 11) {
  CorpusOptions options;
  options.num_schemas = n;
  options.seed = seed;
  std::vector<Schema> schemas;
  for (GeneratedSchema& g : GenerateCorpus(options)) {
    schemas.push_back(std::move(g.schema));
  }
  return schemas;
}

// --- packed profiles --------------------------------------------------------------

TEST(PackedProfileTest, PackedDiceBitIdenticalToLegacyDice) {
  // Mix of short words (pack fully), long words (overflow strings), and
  // repeated grams (multiset counts matter).
  const std::vector<std::string> words = {
      "pat",      "patient",   "patientrecord", "dateofbirth",
      "aaaabbbb", "banana",    "bananabanana",  "x",
      "height",   "heightcm",  "customerorder", "ht"};
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      NgramProfile pa = BuildNgramProfile(a, 2, 4);
      NgramProfile pb = BuildNgramProfile(b, 2, 4);
      PackedProfile qa = PackProfile(pa);
      PackedProfile qb = PackProfile(pb);
      // Bit-identical, not approximately equal: the packing is bijective,
      // so the Dice expression evaluates on the same integers.
      EXPECT_EQ(PackedDice(qa, qb), DiceSimilarity(pa, pb))
          << "words: " << a << " vs " << b;
    }
  }
}

// --- signatures -------------------------------------------------------------------

TEST(SignatureTest, DeterministicAndSelfSimilar) {
  FeatureBuildOptions options;
  auto a1 = BuildSchemaFeatures(Clinic(), options);
  auto a2 = BuildSchemaFeatures(Clinic(), options);
  ComputeSignature(a1.get(), nullptr);
  ComputeSignature(a2.get(), nullptr);
  EXPECT_TRUE(a1->signature == a2->signature);
  EXPECT_EQ(a1->content_hash, a2->content_hash);
  EXPECT_DOUBLE_EQ(EstimatedSimilarity(a1->signature, a2->signature), 1.0);

  auto b = BuildSchemaFeatures(Shop(), options);
  ComputeSignature(b.get(), nullptr);
  EXPECT_NE(a1->content_hash, b->content_hash);
  EXPECT_LT(EstimatedSimilarity(a1->signature, b->signature), 1.0);
}

TEST(SignatureTest, RelatedSchemasScoreAboveUnrelated) {
  FeatureBuildOptions options;
  // clinic vs a near-duplicate clinic must beat clinic vs shop.
  Schema near = SchemaBuilder("clinic2")
                    .Entity("patient")
                    .Attribute("height", DataType::kDouble)
                    .Attribute("gender", DataType::kString)
                    .Entity("visit")
                    .Attribute("diagnosis")
                    .Build();
  auto fa = BuildSchemaFeatures(Clinic(), options);
  auto fb = BuildSchemaFeatures(near, options);
  auto fc = BuildSchemaFeatures(Shop(), options);
  ComputeSignature(fa.get(), nullptr);
  ComputeSignature(fb.get(), nullptr);
  ComputeSignature(fc.get(), nullptr);
  EXPECT_GT(EstimatedSimilarity(fa->signature, fb->signature),
            EstimatedSimilarity(fa->signature, fc->signature));
}

TEST(SignatureTest, SealedCrcDetectsBitFlip) {
  FeatureBuildOptions options;
  auto f = BuildSchemaFeatures(Clinic(), options);
  ComputeSignature(f.get(), nullptr);
  EXPECT_TRUE(VerifySignature(f->signature));
  SchemaSignature tampered = f->signature;
  tampered.simhash[3] ^= 0x10;
  EXPECT_FALSE(VerifySignature(tampered));
}

// --- engine equivalence -----------------------------------------------------------

struct EngineFixture {
  std::unique_ptr<ServingCorpus> corpus;
  std::shared_ptr<const CorpusSnapshot> snapshot;
};

EngineFixture MakeEngineFixture(size_t n = 24) {
  EngineFixture f;
  auto repo = SchemaRepository::OpenInMemory();
  for (Schema& s : SmallCorpus(n)) {
    auto id = repo->Insert(std::move(s));
    EXPECT_TRUE(id.ok());
  }
  auto corpus = ServingCorpus::Create(std::move(repo));
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  f.corpus = std::move(corpus).value();
  f.snapshot = f.corpus->Snapshot();
  return f;
}

const char* kQueries[] = {
    "patient height gender",
    "customer order total",
    "movie title director",
    "flight departure arrival airport",
    "inventory stock warehouse",
};

TEST(EnginePrefilterTest, PrefilterRejectsAndCounts) {
  EngineFixture f = MakeEngineFixture();
  SearchEngine engine(f.snapshot);

  SearchStats exact_stats;
  SearchEngineOptions exact;
  exact.stats = &exact_stats;
  auto full = engine.SearchKeywords(kQueries[0], exact);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(exact_stats.prefilter_rejected, 0u);

  SearchStats stats;
  SearchEngineOptions screened;
  screened.prefilter = 0.999;  // rejects everything but near-duplicates
  screened.stats = &stats;
  auto filtered = engine.SearchKeywords(kQueries[0], screened);
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(stats.prefilter_rejected, 0u);
  EXPECT_LE(filtered->size(), full->size());
  // Rejection is an explicit opt-in, not degradation.
  EXPECT_FALSE(stats.ComputeDegraded());
  // Whatever survives the screen is a subset of the exact candidates.
  for (const SearchResult& r : *filtered) {
    bool found = false;
    for (const SearchResult& e : *full) found |= e.schema_id == r.schema_id;
    EXPECT_TRUE(found) << "schema " << r.schema_id
                       << " appeared only under the screen";
  }
}

TEST(EnginePrefilterTest, MissingCatalogEntryIsAnInternalError) {
  // A snapshot whose catalog lacks one schema is broken: the engine says
  // so instead of scoring that candidate some other way.
  EngineFixture f = MakeEngineFixture(8);
  auto snapshot = std::make_shared<CorpusSnapshot>(*f.snapshot);
  const auto& catalog = snapshot->match_features;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>> pruned =
      catalog->features();
  ASSERT_FALSE(pruned.empty());
  const SchemaId dropped = pruned.begin()->first;
  pruned.erase(pruned.begin());
  snapshot->match_features = std::make_shared<const MatchFeatureCatalog>(
      catalog->options(), pruned,
      std::shared_ptr<const DfTable>(catalog, &catalog->df()));

  SearchEngine engine(snapshot);
  auto schema = f.snapshot->schemas->Get(dropped);
  ASSERT_TRUE(schema.ok());
  auto results = engine.SearchKeywords(schema->name());
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInternal);
}

TEST(EnginePrefilterTest, PrefilterJoinsOptionsHash) {
  SearchEngineOptions exact;
  SearchEngineOptions screened;
  screened.prefilter = 0.2;
  SearchEngineOptions other;
  other.prefilter = 0.3;
  EXPECT_NE(HashSearchOptions(exact), HashSearchOptions(screened));
  EXPECT_NE(HashSearchOptions(screened), HashSearchOptions(other));
}

// --- workload opt-in --------------------------------------------------------------

TEST(WorkloadPrefilterTest, XmlRoundTripPreservesThreshold) {
  std::vector<WorkloadEntry> entries(2);
  entries[0].keywords = "patient height";
  entries[0].prefilter = 0.15;
  entries[0].expected_digest = 0x1234;
  entries[1].keywords = "customer order";  // exact entry: no attribute
  auto parsed = WorkloadFromXml(WorkloadToXml(entries));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_DOUBLE_EQ((*parsed)[0].prefilter, 0.15);
  EXPECT_EQ((*parsed)[0].expected_digest, 0x1234u);
  EXPECT_DOUBLE_EQ((*parsed)[1].prefilter, 0.0);
}

// --- persistence ------------------------------------------------------------------

class SignatureFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemr_signature_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SigPath() const { return (dir_ / "signatures.sig").string(); }

  std::shared_ptr<const MatchFeatureCatalog> BuildCatalog(
      CatalogBuildStats* stats = nullptr,
      const StoredSignatures* stored = nullptr) {
    CatalogBuilder builder;
    for (const Schema& s : SmallCorpus(10)) builder.Add(s);
    return builder.Build(stored, stats);
  }

  fs::path dir_;
};

TEST_F(SignatureFileTest, SaveLoadRoundTrip) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());

  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corpus_hash, catalog->CorpusHash());
  EXPECT_EQ(loaded->signatures.size(), catalog->size());
  EXPECT_EQ(loaded->corrupt_records, 0u);
  for (const auto& [id, features] : catalog->features()) {
    auto it = loaded->signatures.find(id);
    ASSERT_NE(it, loaded->signatures.end());
    EXPECT_TRUE(it->second == features->signature);
    EXPECT_TRUE(VerifySignature(it->second));
  }

  // A rebuild against the stored file adopts every record.
  CatalogBuildStats stats;
  StoredSignatures stored = std::move(*loaded);
  auto adopted = BuildCatalog(&stats, &stored);
  EXPECT_EQ(stats.signatures_loaded, catalog->size());
  EXPECT_EQ(stats.signatures_built, 0u);
}

TEST_F(SignatureFileTest, ByteFlipDetectedAndRebuilt) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());

  // Flip one byte inside the first record's payload (past the header:
  // magic 4 + version 4 + corpus hash 8 + count 8 = 24 bytes).
  std::fstream file(SigPath(),
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(40);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x40;
  file.seekp(40);
  file.write(&byte, 1);
  file.close();

  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corrupt_records, 1u);
  EXPECT_EQ(loaded->signatures.size(), catalog->size() - 1);
  // Every surviving record still proves itself.
  for (const auto& [id, signature] : loaded->signatures) {
    EXPECT_TRUE(VerifySignature(signature));
  }

  // The rebuild recomputes exactly the dropped signature, and the result
  // equals a fresh build bit-for-bit: corruption is detected and repaired,
  // never served.
  CatalogBuildStats stats;
  auto repaired = BuildCatalog(&stats, &*loaded);
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_EQ(stats.signatures_loaded, catalog->size() - 1);
  EXPECT_EQ(stats.signatures_built, 1u);
  for (const auto& [id, features] : catalog->features()) {
    const SchemaFeatures* r = repaired->Find(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->signature == features->signature);
  }
}

TEST_F(SignatureFileTest, StaleCorpusHashIgnoresWholeFile) {
  auto catalog = BuildCatalog();
  ASSERT_TRUE(SaveSignatures(SigPath(), *catalog).ok());
  auto loaded = LoadSignatures(SigPath());
  ASSERT_TRUE(loaded.ok());

  // Build over a DIFFERENT corpus: the stored hash cannot match, so
  // nothing is adopted.
  CatalogBuilder builder;
  for (const Schema& s : SmallCorpus(10, /*seed=*/99)) builder.Add(s);
  CatalogBuildStats stats;
  auto other = builder.Build(&*loaded, &stats);
  EXPECT_EQ(stats.signatures_loaded, 0u);
  EXPECT_EQ(stats.signatures_built, other->size());
}

TEST_F(SignatureFileTest, TruncatedHeaderIsParseError) {
  std::ofstream out(SigPath(), std::ios::binary);
  out << "SSIG";  // magic only
  out.close();
  auto loaded = LoadSignatures(SigPath());
  EXPECT_FALSE(loaded.ok());
}

// --- serving corpus ---------------------------------------------------------------

TEST_F(SignatureFileTest, ServingCorpusPublishesAndPersistsCatalog) {
  {
    auto repo = SchemaRepository::Open(dir_.string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (Schema& s : SmallCorpus(6)) {
      ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
    }
  }
  // First open builds every signature and writes the file.
  {
    auto corpus = ServingCorpus::Open(dir_.string());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    auto snapshot = (*corpus)->Snapshot();
    ASSERT_NE(snapshot->match_features, nullptr);
    EXPECT_EQ(snapshot->match_features->size(), 6u);
    EXPECT_EQ((*corpus)->last_build_stats().signatures_built, 6u);

    // Incremental ingest extends the catalog in the next snapshot.
    ASSERT_TRUE((*corpus)->Ingest(Clinic()).ok());
    auto after = (*corpus)->Snapshot();
    EXPECT_EQ(after->match_features->size(), 7u);
    EXPECT_GT(after->version, snapshot->version);
  }
  // The ingested schema changed the corpus, so the stored file is stale:
  // the next open rebuilds and rewrites it; the one after adopts every
  // signature from it.
  {
    auto corpus = ServingCorpus::Open(dir_.string());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ((*corpus)->last_build_stats().signatures_built, 7u);
  }
  auto corpus = ServingCorpus::Open(dir_.string());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const CatalogBuildStats stats = (*corpus)->last_build_stats();
  EXPECT_EQ(stats.signatures_loaded, 7u);
  EXPECT_EQ(stats.signatures_built, 0u);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(SignatureFileTest, ReopeningAnUnchangedRepoWritesNothing) {
  {
    auto repo = SchemaRepository::Open(dir_.string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (Schema& s : SmallCorpus(8)) {
      ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
    }
  }
  { ASSERT_TRUE(ServingCorpus::Open(dir_.string()).ok()); }
  const std::string bytes = ReadBytes(SigPath());
  ASSERT_FALSE(bytes.empty());
  // Backdate the file so any rewrite, even of identical bytes, shows.
  const auto backdated = fs::last_write_time(SigPath()) - std::chrono::hours(1);
  fs::last_write_time(SigPath(), backdated);

  auto corpus = ServingCorpus::Open(dir_.string());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const CatalogBuildStats stats = (*corpus)->last_build_stats();
  EXPECT_EQ(stats.signatures_loaded, 8u);
  EXPECT_EQ(stats.signatures_built, 0u);
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_EQ(fs::last_write_time(SigPath()), backdated);
  EXPECT_EQ(ReadBytes(SigPath()), bytes);
}

TEST_F(SignatureFileTest, CorruptRecordIsRebuiltAndRewrittenOnOpen) {
  {
    auto repo = SchemaRepository::Open(dir_.string());
    ASSERT_TRUE(repo.ok()) << repo.status();
    for (Schema& s : SmallCorpus(5)) {
      ASSERT_TRUE((*repo)->Insert(std::move(s)).ok());
    }
  }
  { ASSERT_TRUE(ServingCorpus::Open(dir_.string()).ok()); }
  const std::string good = ReadBytes(SigPath());
  std::string flipped = good;
  flipped[40] ^= 0x40;  // inside the first record, past the 24-byte header
  std::ofstream(SigPath(), std::ios::binary | std::ios::trunc) << flipped;

  auto corpus = ServingCorpus::Open(dir_.string());
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ((*corpus)->last_build_stats().corrupt_records, 1u);
  EXPECT_EQ((*corpus)->last_build_stats().signatures_built, 1u);
  // The repaired file holds the same records as the original.
  auto reloaded = LoadSignatures(SigPath());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->corrupt_records, 0u);
  EXPECT_EQ(reloaded->signatures.size(), 5u);
}

// --- catalog/view invariant under mutation ------------------------------------------

/// Ids of every schema in the view, and of every catalog entry.
std::set<SchemaId> ViewIds(const CorpusSnapshot& snapshot) {
  std::set<SchemaId> ids;
  EXPECT_TRUE(snapshot.schemas->ForEach([&ids](const Schema& schema) {
                ids.insert(schema.id());
                return Status::OK();
              }).ok());
  return ids;
}

std::set<SchemaId> CatalogIds(const CorpusSnapshot& snapshot) {
  std::set<SchemaId> ids;
  for (const auto& [id, features] : snapshot.match_features->features()) {
    ids.insert(id);
  }
  return ids;
}

/// Exact-mode digests of a fixed probe set.
std::vector<uint64_t> ProbeDigests(const ServingCorpus& corpus) {
  static const char* kProbes[] = {
      "patient height gender", "customer order total",
      "movie title director",  "flight departure arrival airport",
      "inventory stock",       "visit diagnosis date",
  };
  SearchEngine engine(&corpus);
  std::vector<uint64_t> digests;
  for (const char* probe : kProbes) {
    auto results = engine.SearchKeywords(probe);
    EXPECT_TRUE(results.ok()) << results.status();
    digests.push_back(results.ok() ? DigestResults(*results) : 0);
  }
  return digests;
}

// Every snapshot's catalog covers exactly its schema view (the engine
// treats a missing entry as Internal), and the exact answers of a
// mutated corpus equal those of a fresh Open of the same directory,
// through the persisted-segment branch and the rebuild branch.
// Approximate (prefilter > 0) digests are deliberately not compared:
// incremental ingest signs a schema under the document frequencies of
// that moment, so approximate windows still depend on ingest history.
TEST_F(SignatureFileTest, RandomMutationsKeepCatalogAndViewInStep) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::vector<Schema> pool = SmallCorpus(30, 100 + seed);
    {
      auto repo = SchemaRepository::Open(dir_.string());
      ASSERT_TRUE(repo.ok()) << repo.status();
      for (size_t i = 0; i < 8; ++i) ASSERT_TRUE((*repo)->Insert(pool[i]).ok());
    }
    std::vector<uint64_t> live;
    {
      auto opened = ServingCorpus::Open(dir_.string());
      ASSERT_TRUE(opened.ok()) << opened.status();
      ServingCorpus& corpus = **opened;
      Rng rng(seed);
      size_t next = 8;
      for (int step = 0; step < 40; ++step) {
        std::vector<SchemaId> ids;
        for (SchemaId id : ViewIds(*corpus.Snapshot())) ids.push_back(id);
        const uint64_t op = rng.NextBelow(3);
        if (op == 0 || ids.size() < 3) {
          ASSERT_TRUE(corpus.Ingest(pool[next++ % pool.size()]).ok());
        } else if (op == 1) {
          Schema replacement = pool[next++ % pool.size()];
          replacement.set_id(ids[rng.NextBelow(ids.size())]);
          ASSERT_TRUE(corpus.Update(std::move(replacement)).ok());
        } else {
          ASSERT_TRUE(corpus.Remove(ids[rng.NextBelow(ids.size())]).ok());
        }
        const auto snapshot = corpus.Snapshot();
        ASSERT_EQ(CatalogIds(*snapshot), ViewIds(*snapshot)) << "step " << step;
      }
      live = ProbeDigests(corpus);
    }
    {
      auto segment = ServingCorpus::Open(dir_.string());
      ASSERT_TRUE(segment.ok()) << segment.status();
      EXPECT_FALSE((*segment)->index_open_stats().rebuilt);
      const auto snapshot = (*segment)->Snapshot();
      EXPECT_EQ(CatalogIds(*snapshot), ViewIds(*snapshot));
      EXPECT_EQ(ProbeDigests(**segment), live);
    }
    fs::remove(dir_ / "segment.idx");
    auto rebuilt = ServingCorpus::Open(dir_.string());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_TRUE((*rebuilt)->index_open_stats().rebuilt);
    EXPECT_EQ(ProbeDigests(**rebuilt), live);
  }
}

}  // namespace
}  // namespace schemr
