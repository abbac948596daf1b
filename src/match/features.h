// Columnar match features: everything the name and context matchers need
// about one schema, precomputed at index time (DESIGN.md §16). Matchers
// score only these features; nothing about a schema is re-derived per
// (query, candidate) pair.
//
//   - a schema-local interned term vocabulary (name words, concatenated
//     names, context terms) with packed n-gram profiles: grams of <= 7
//     bytes pack bijectively into a uint64 (length byte + characters), so
//     profile intersection is a sorted-array merge over integers, and,
//     because the packing is exact (no collisions), the merged counts
//     equal the NgramProfile counts and the Dice similarity is the same;
//   - per-element NameFeatures (word ids in name order, concat id,
//     initials);
//   - per-element neighborhood term-id lists in sorted-term order, which
//     fixes the floating-point summation order of the context matcher;
//   - the schema's SchemaSignature (256-bit SimHash + MinHash sketch),
//     IDF-weighted from the catalog-wide document-frequency table.
//
// A MatchFeatureCatalog is immutable and rides inside a CorpusSnapshot,
// so copy-on-write publication and the result cache's snapshot keying
// cover it with no new machinery. The options a catalog is built under
// (FeatureBuildOptions) are the only way to change what the features
// are; matcher options are match-time only, so a matcher and the catalog
// it scores can never disagree.

#ifndef SCHEMR_MATCH_FEATURES_H_
#define SCHEMR_MATCH_FEATURES_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "match/matcher.h"
#include "match/signature.h"
#include "schema/schema.h"
#include "text/ngram.h"
#include "util/status.h"

namespace schemr {

class NameMatcher;  // match/name_matcher.h

/// An NgramProfile flattened into sorted arrays. Grams of at most 7 bytes
/// (every banded gram of lowercase ASCII words, and most whole words)
/// pack exactly — length byte in the top 8 bits, characters below — so
/// equality of packed keys IS equality of grams. Longer grams (whole-word
/// or concat grams past 7 chars) keep their strings in `overflow`;
/// both arrays are sorted, and intersection is a two-pointer merge.
struct PackedProfile {
  std::vector<std::pair<uint64_t, uint32_t>> packed;        // sorted by key
  std::vector<std::pair<std::string, uint32_t>> overflow;   // sorted by gram
  /// Total gram count (the multiset size |A| in Dice).
  uint64_t total = 0;
};

/// Flattens `profile`; counts carry over unchanged.
PackedProfile PackProfile(const NgramProfile& profile);

/// Dice coefficient over two packed profiles. Equals
/// DiceSimilarity(a', b') on the NgramProfiles they were packed from,
/// bit-for-bit: the packing is bijective, so intersection and sizes are
/// the same integers and the final division is the same expression.
double PackedDice(const PackedProfile& a, const PackedProfile& b);

/// One interned term of a schema's vocabulary.
struct TermFeature {
  std::string text;        ///< normalized (lowercased, stemmed) term
  PackedProfile profile;   ///< n-gram profile under the build options
};

/// One element name, with words interned into the schema vocabulary.
struct NameFeature {
  std::vector<uint32_t> words;  ///< term ids, in name order
  uint32_t concat = 0;          ///< term id of the concatenated words
  std::string initials;
};

/// The build-time options of a catalog: how names are normalized and
/// profiled, and which terms a neighborhood gathers.
struct FeatureBuildOptions {
  /// Use n = 1..len(word) profiles exactly as described in the paper.
  /// Otherwise the banded profile [min_n, max_n] (+ whole word) is used.
  bool exhaustive_ngrams = false;
  size_t min_n = 2;
  size_t max_n = 4;
  /// Porter-stem name words (conflates grammatical forms before gram
  /// extraction). Context terms are always stemmed.
  bool stem = true;
  /// Include FK-linked entity names in an element's neighborhood.
  bool include_fk_neighbors = true;
};

/// Everything precomputed about one schema. Immutable once built.
struct SchemaFeatures {
  /// Schema-local interned vocabulary: every name word, every
  /// concatenated name, every context term, each with its packed profile.
  std::vector<TermFeature> terms;
  /// Per element id: the prepared name.
  std::vector<NameFeature> names;
  /// Per element id: neighborhood term ids, sorted by term text (which
  /// fixes FP summation order).
  std::vector<std::vector<uint32_t>> neighborhoods;
  /// Screening signature (sealed: VerifySignature holds).
  SchemaSignature signature;
  /// Deterministic hash of the schema's matcher-visible content; keys the
  /// persisted-signature cache.
  uint64_t content_hash = 0;
};

/// Catalog-wide document-frequency table: df(term) = schemas whose
/// vocabulary contains the term. Feeds IDF weights into SimHash bit
/// votes (rare, discriminative terms dominate the signature). Advisory
/// only — no matcher score reads it.
class DfTable {
 public:
  void AddDocument(const SchemaFeatures& features);
  void RemoveDocument(const SchemaFeatures& features);

  uint64_t documents() const { return documents_; }
  uint32_t Df(const std::string& term) const;

  /// log(1 + N / (1 + df)): always positive, larger for rarer terms.
  double Idf(const std::string& term) const;

 private:
  std::unordered_map<std::string, uint32_t> df_;
  uint64_t documents_ = 0;
};

/// Per-(query, candidate) scoring scratch owned by each scoring worker: a
/// dense lazily-filled memo of term-pair similarities, shared by the name
/// and context matchers of one ensemble invocation (they memoize the same
/// pure function of the two terms).
struct MatchScratch {
  std::vector<double> pair_scores;  ///< row-major [query_term][cand_term]
  size_t cand_terms = 0;
  /// Whether the filled cells consulted the synonym lexicon.
  bool synonyms = true;

  /// Marks every pair unset. Reuses capacity across candidates.
  void Reset(size_t query_terms, size_t candidate_terms);

  /// Called by each matcher before it reads the memo: cells filled under
  /// the other synonym setting are cleared, so a name matcher without
  /// synonyms and the context matcher never read each other's values.
  void Bind(bool use_synonyms);

  double* Slot(uint32_t query_term, uint32_t cand_term) {
    return &pair_scores[query_term * cand_terms + cand_term];
  }
};

/// One term pair, uncached: identical texts score exactly 1.0 (which
/// WordSimilarity also gives identical words), everything else is
/// `matcher.WordSimilarity`.
double TermSimilarity(const NameMatcher& matcher, const TermFeature& a,
                      const TermFeature& b);

/// The shared memo lookup both matchers score through: TermSimilarity,
/// computed at most once per (query term, candidate term) pair of the
/// current candidate. Inline because the hit path is the innermost loop
/// of phase 2.
inline double MemoizedTermSimilarity(const NameMatcher& matcher,
                                     const MatchContext& context,
                                     uint32_t query_term,
                                     uint32_t candidate_term) {
  double* slot = context.scratch.Slot(query_term, candidate_term);
  if (std::isnan(*slot)) {
    *slot = TermSimilarity(matcher, context.query.terms[query_term],
                           context.candidate.terms[candidate_term]);
  }
  return *slot;
}

/// Builds the full feature set for one schema, except the signature
/// (which wants the corpus-wide df table; see ComputeSignature). Never
/// fails: an empty schema yields empty features.
std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options);

/// Features for one standalone comparison outside any catalog (the
/// composer, search-history simulation, tests): both schemas built under
/// `options`, plus the memo, so a MatchContext can be formed.
class PairFeatures {
 public:
  PairFeatures(const Schema& query, const Schema& candidate,
               const FeatureBuildOptions& options = {});

  /// Valid while this object lives.
  MatchContext context();

 private:
  std::shared_ptr<SchemaFeatures> query_;
  std::shared_ptr<SchemaFeatures> candidate_;
  MatchScratch scratch_;
};

/// Fills features->signature from its terms, IDF-weighted when `df` is
/// non-null, and seals the CRC.
void ComputeSignature(SchemaFeatures* features, const DfTable* df);

/// Counters from one catalog build, for `schemr stats` and metrics.
struct CatalogBuildStats {
  size_t schemas = 0;
  size_t signatures_loaded = 0;   ///< adopted from a persisted file
  size_t signatures_built = 0;    ///< computed (fresh, or rebuilt on CRC fail)
  size_t corrupt_records = 0;     ///< persisted records that failed their CRC
  double seconds = 0.0;           ///< wall time of the whole build
};

class MatchFeatureCatalog;

/// Signatures read back from a signature file. Only CRC-valid records
/// survive loading; `corpus_hash` gates adoption (a catalog built over a
/// different corpus ignores the whole file and rebuilds).
struct StoredSignatures {
  uint64_t corpus_hash = 0;
  std::unordered_map<SchemaId, SchemaSignature> signatures;
  size_t corrupt_records = 0;
};

/// Two-pass catalog builder: Add() every schema (features + df), then
/// Build() computes signatures under the final df table — so a full
/// build's signatures are independent of insertion order.
class CatalogBuilder {
 public:
  explicit CatalogBuilder(FeatureBuildOptions options = {});

  /// Pass 1: features without signature, df accumulation.
  void Add(const Schema& schema);

  /// Pass 2: signatures (adopting entries from `stored` when its
  /// corpus_hash matches this corpus), then freezes the catalog.
  std::shared_ptr<const MatchFeatureCatalog> Build(
      const StoredSignatures* stored = nullptr,
      CatalogBuildStats* stats = nullptr);

 private:
  FeatureBuildOptions options_;
  std::unordered_map<SchemaId, std::shared_ptr<SchemaFeatures>> features_;
  DfTable df_;
};

/// Immutable per-snapshot feature store: schema id → features, plus the
/// df table and build options. Shared by every search pinned to the
/// snapshot; versioned implicitly by riding inside CorpusSnapshot.
class MatchFeatureCatalog {
 public:
  MatchFeatureCatalog(
      FeatureBuildOptions options,
      std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
          features,
      std::shared_ptr<const DfTable> df);

  /// The features of `id`, or null when the schema is not in the catalog.
  const SchemaFeatures* Find(SchemaId id) const;

  const FeatureBuildOptions& options() const { return options_; }
  const DfTable& df() const { return *df_; }
  size_t size() const { return features_.size(); }

  /// Order-independent hash of every schema's content hash; keys the
  /// persisted-signature file to this exact corpus.
  uint64_t CorpusHash() const;

  /// The underlying map (ServingCorpus seeds its incremental working set
  /// from a full build; tests iterate it).
  const std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>&
  features() const {
    return features_;
  }

 private:
  FeatureBuildOptions options_;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
      features_;
  std::shared_ptr<const DfTable> df_;
};

/// Persists every signature in `catalog` to `path`:
///   "SSIG" magic, version, corpus hash, record count, then per record
///   (schema id, signature payload, record CRC). Atomic-enough for our
///   use (write then rename is overkill for an advisory cache — a torn
///   file just fails its CRCs and gets rebuilt).
Status SaveSignatures(const std::string& path,
                      const MatchFeatureCatalog& catalog);

/// Reads a signature file. Records whose CRC fails are counted in
/// `corrupt_records` and dropped — a byte flip is detected, never served.
/// IOError when the file cannot be read; ParseError on a bad header.
Result<StoredSignatures> LoadSignatures(const std::string& path);

}  // namespace schemr

#endif  // SCHEMR_MATCH_FEATURES_H_
