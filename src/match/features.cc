#include "match/features.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>

#include "match/name_matcher.h"
#include "schema/entity_graph.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace schemr {

namespace {

/// Grams longer than this spill into the overflow array.
constexpr size_t kMaxPackedGram = 7;

/// Domain separator so packed-gram hashes never collide with term-text
/// hashes by construction of the inputs alone.
constexpr uint64_t kGramSeed = 0x5349474e41545552ull;  // "SIGNATUR"

uint64_t PackGram(const std::string& gram) {
  uint64_t key = static_cast<uint64_t>(gram.size()) << 56;
  for (size_t i = 0; i < gram.size(); ++i) {
    key |= static_cast<uint64_t>(static_cast<unsigned char>(gram[i]))
           << (48 - 8 * i);
  }
  return key;
}

/// Word list of an element name: tokenize, lowercase, optionally stem,
/// drop empties.
std::vector<std::string> NormalizeName(const std::string& name,
                                       const FeatureBuildOptions& options) {
  std::vector<std::string> words;
  for (const std::string& raw : TokenizeToStrings(name)) {
    std::string word = ToLowerAscii(raw);
    if (options.stem) word = PorterStem(word);
    if (!word.empty()) words.push_back(std::move(word));
  }
  return words;
}

/// Adds the normalized word tokens of `name` to a neighborhood (context
/// terms are stemmed unconditionally).
void AddContextTerms(const std::string& name, std::set<std::string>* terms) {
  for (const std::string& raw : TokenizeToStrings(name)) {
    terms->insert(PorterStem(ToLowerAscii(raw)));
  }
}

/// The n-gram profile of one normalized word under `options`' banding.
NgramProfile WordProfile(const std::string& word,
                         const FeatureBuildOptions& options) {
  if (options.exhaustive_ngrams) {
    return BuildNgramProfile(word, 1, word.size());
  }
  NgramProfile profile = BuildNgramProfile(word, options.min_n, options.max_n);
  // Always include the whole word so exact matches of short words score.
  ++profile[word];
  return profile;
}

/// Initials of a word list ("date","of","birth" → "dob").
std::string Initials(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!word.empty()) out += word[0];
  }
  return out;
}

uint64_t HashString(uint64_t hash, const std::string& s) {
  hash = MixHash64(hash ^ s.size());
  return MixHash64(hash ^ HashBytes(s.data(), s.size()));
}

/// Deterministic hash of the matcher-visible content of a schema.
uint64_t ContentHash(const Schema& schema) {
  uint64_t hash = 0x534348454d520000ull;  // "SCHEMR"
  hash = HashString(hash, schema.name());
  for (const Element& element : schema.elements()) {
    hash = HashString(hash, element.name);
    hash = MixHash64(hash ^ static_cast<uint64_t>(element.kind));
    hash = MixHash64(hash ^ static_cast<uint64_t>(element.type));
    hash = MixHash64(hash ^ element.parent);
  }
  for (const ForeignKey& fk : schema.foreign_keys()) {
    hash = MixHash64(hash ^ fk.attribute);
    hash = MixHash64(hash ^ fk.target_entity);
    hash = MixHash64(hash ^ fk.target_attribute);
  }
  return hash;
}

}  // namespace

PackedProfile PackProfile(const NgramProfile& profile) {
  PackedProfile packed;
  for (const auto& [gram, count] : profile) {
    packed.total += count;
    if (gram.size() <= kMaxPackedGram) {
      packed.packed.emplace_back(PackGram(gram), count);
    } else {
      packed.overflow.emplace_back(gram, count);
    }
  }
  std::sort(packed.packed.begin(), packed.packed.end());
  std::sort(packed.overflow.begin(), packed.overflow.end());
  return packed;
}

double PackedDice(const PackedProfile& a, const PackedProfile& b) {
  uint64_t intersection = 0;
  {
    size_t i = 0, j = 0;
    while (i < a.packed.size() && j < b.packed.size()) {
      if (a.packed[i].first == b.packed[j].first) {
        intersection += std::min(a.packed[i].second, b.packed[j].second);
        ++i;
        ++j;
      } else if (a.packed[i].first < b.packed[j].first) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  {
    size_t i = 0, j = 0;
    while (i < a.overflow.size() && j < b.overflow.size()) {
      const int cmp = a.overflow[i].first.compare(b.overflow[j].first);
      if (cmp == 0) {
        intersection += std::min(a.overflow[i].second, b.overflow[j].second);
        ++i;
        ++j;
      } else if (cmp < 0) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  if (a.total + b.total == 0) return 0.0;
  // The exact expression of DiceSimilarity: same integers, same division.
  return 2.0 * static_cast<double>(intersection) /
         static_cast<double>(a.total + b.total);
}

void DfTable::AddDocument(const SchemaFeatures& features) {
  for (const TermFeature& term : features.terms) ++df_[term.text];
  ++documents_;
}

void DfTable::RemoveDocument(const SchemaFeatures& features) {
  for (const TermFeature& term : features.terms) {
    auto it = df_.find(term.text);
    if (it == df_.end()) continue;
    if (--it->second == 0) df_.erase(it);
  }
  if (documents_ > 0) --documents_;
}

uint32_t DfTable::Df(const std::string& term) const {
  auto it = df_.find(term);
  return it == df_.end() ? 0 : it->second;
}

double DfTable::Idf(const std::string& term) const {
  return std::log(1.0 + static_cast<double>(documents_) /
                            (1.0 + static_cast<double>(Df(term))));
}

void MatchScratch::Reset(size_t query_terms, size_t candidate_terms) {
  cand_terms = candidate_terms;
  pair_scores.assign(query_terms * candidate_terms,
                     std::numeric_limits<double>::quiet_NaN());
}

void MatchScratch::Bind(bool use_synonyms) {
  if (use_synonyms == synonyms) return;
  synonyms = use_synonyms;
  std::fill(pair_scores.begin(), pair_scores.end(),
            std::numeric_limits<double>::quiet_NaN());
}

double TermSimilarity(const NameMatcher& matcher, const TermFeature& a,
                      const TermFeature& b) {
  return a.text == b.text ? 1.0 : matcher.WordSimilarity(a, b);
}

std::shared_ptr<SchemaFeatures> BuildSchemaFeatures(
    const Schema& schema, const FeatureBuildOptions& options) {
  auto features = std::make_shared<SchemaFeatures>();
  features->content_hash = ContentHash(schema);

  std::unordered_map<std::string, uint32_t> intern;
  auto term_id = [&](const std::string& text) -> uint32_t {
    auto it = intern.find(text);
    if (it != intern.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(features->terms.size());
    intern.emplace(text, id);
    features->terms.push_back(
        TermFeature{text, PackProfile(WordProfile(text, options))});
    return id;
  };

  features->names.resize(schema.size());
  for (ElementId id = 0; id < schema.size(); ++id) {
    NameFeature& name = features->names[id];
    std::vector<std::string> words =
        NormalizeName(schema.element(id).name, options);
    name.words.reserve(words.size());
    for (const std::string& word : words) name.words.push_back(term_id(word));
    name.concat = term_id(Join(words, ""));
    name.initials = Initials(words);
  }

  // Neighborhood term-id lists: the element itself, its parent, siblings
  // and children, and the FK-linked entities of its containing entity.
  // The per-element std::set fixes the term order (sorted by text); the
  // id list preserves it.
  features->neighborhoods.resize(schema.size());
  const EntityGraph graph(schema);
  for (ElementId id = 0; id < schema.size(); ++id) {
    std::set<std::string> terms;
    const Element& element = schema.element(id);
    AddContextTerms(element.name, &terms);
    if (element.parent != kNoElement) {
      AddContextTerms(schema.element(element.parent).name, &terms);
      for (ElementId sibling : schema.Children(element.parent)) {
        if (sibling != id) {
          AddContextTerms(schema.element(sibling).name, &terms);
        }
      }
    }
    for (ElementId child : schema.Children(id)) {
      AddContextTerms(schema.element(child).name, &terms);
    }
    if (options.include_fk_neighbors) {
      ElementId entity = schema.EntityOf(id);
      if (entity != kNoElement) {
        for (ElementId neighbor : graph.Neighbors(entity)) {
          AddContextTerms(schema.element(neighbor).name, &terms);
        }
      }
    }
    std::vector<uint32_t>& ids = features->neighborhoods[id];
    ids.reserve(terms.size());
    for (const std::string& term : terms) ids.push_back(term_id(term));
  }
  return features;
}

PairFeatures::PairFeatures(const Schema& query, const Schema& candidate,
                           const FeatureBuildOptions& options)
    : query_(BuildSchemaFeatures(query, options)),
      candidate_(BuildSchemaFeatures(candidate, options)) {
  scratch_.Reset(query_->terms.size(), candidate_->terms.size());
}

MatchContext PairFeatures::context() {
  return MatchContext{*query_, *candidate_, scratch_};
}

void ComputeSignature(SchemaFeatures* features, const DfTable* df) {
  SimHashAccumulator simhash;
  // SimHash votes: every gram of every name word, weighted by the word's
  // occurrence count and corpus IDF — rare, discriminative words dominate
  // the bit pattern while boilerplate ("id", "name") barely moves it.
  for (const NameFeature& name : features->names) {
    for (uint32_t word_id : name.words) {
      const TermFeature& term = features->terms[word_id];
      const double weight = df != nullptr ? df->Idf(term.text) : 1.0;
      for (const auto& [key, count] : term.profile.packed) {
        simhash.Add(MixHash64(key ^ kGramSeed), weight * count);
      }
      for (const auto& [gram, count] : term.profile.overflow) {
        simhash.Add(MixHash64(HashBytes(gram.data(), gram.size()) ^ kGramSeed),
                    weight * count);
      }
    }
  }
  simhash.Finish(&features->signature);

  // MinHash sketch over the schema's whole term vocabulary (name words,
  // concats, context terms) — a Jaccard estimate of shared vocabulary.
  MinHashAccumulator minhash;
  for (const TermFeature& term : features->terms) {
    minhash.Add(HashBytes(term.text.data(), term.text.size()));
  }
  minhash.Finish(&features->signature);
  SealSignature(&features->signature);
}

CatalogBuilder::CatalogBuilder(FeatureBuildOptions options)
    : options_(options) {}

void CatalogBuilder::Add(const Schema& schema) {
  auto features = BuildSchemaFeatures(schema, options_);
  df_.AddDocument(*features);
  features_[schema.id()] = std::move(features);
}

std::shared_ptr<const MatchFeatureCatalog> CatalogBuilder::Build(
    const StoredSignatures* stored, CatalogBuildStats* stats) {
  Timer timer;
  uint64_t corpus_hash = 0;
  for (const auto& [id, features] : features_) {
    corpus_hash += MixHash64(features->content_hash ^ MixHash64(id));
  }
  const bool adoptable = stored != nullptr && stored->corpus_hash == corpus_hash;
  CatalogBuildStats local;
  local.schemas = features_.size();
  local.corrupt_records = stored != nullptr ? stored->corrupt_records : 0;
  std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>> frozen;
  frozen.reserve(features_.size());
  for (auto& [id, features] : features_) {
    const SchemaSignature* loaded = nullptr;
    if (adoptable) {
      auto it = stored->signatures.find(id);
      // Belt and braces: the loader already dropped CRC-invalid records,
      // but a signature must never be adopted unverified.
      if (it != stored->signatures.end() && VerifySignature(it->second)) {
        loaded = &it->second;
      }
    }
    if (loaded != nullptr) {
      features->signature = *loaded;
      ++local.signatures_loaded;
    } else {
      ComputeSignature(features.get(), &df_);
      ++local.signatures_built;
    }
    frozen.emplace(id, std::move(features));
  }
  features_.clear();
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return std::make_shared<const MatchFeatureCatalog>(
      options_, std::move(frozen), std::make_shared<const DfTable>(df_));
}

MatchFeatureCatalog::MatchFeatureCatalog(
    FeatureBuildOptions options,
    std::unordered_map<SchemaId, std::shared_ptr<const SchemaFeatures>>
        features,
    std::shared_ptr<const DfTable> df)
    : options_(options), features_(std::move(features)), df_(std::move(df)) {}

const SchemaFeatures* MatchFeatureCatalog::Find(SchemaId id) const {
  auto it = features_.find(id);
  return it == features_.end() ? nullptr : it->second.get();
}

uint64_t MatchFeatureCatalog::CorpusHash() const {
  uint64_t hash = 0;
  for (const auto& [id, features] : features_) {
    hash += MixHash64(features->content_hash ^ MixHash64(id));
  }
  return hash;
}

namespace {

constexpr char kSignatureMagic[4] = {'S', 'S', 'I', 'G'};
constexpr uint32_t kSignatureVersion = 1;

/// On-disk record layout, packed manually (no struct padding games).
constexpr size_t kRecordPayload =
    sizeof(uint64_t) +                                       // schema id
    sizeof(uint64_t) * SchemaSignature::kSimHashWords +      // simhash
    sizeof(uint32_t) * SchemaSignature::kMinHashSlots +      // minhash
    sizeof(uint32_t);                                        // signature crc
constexpr size_t kRecordSize = kRecordPayload + sizeof(uint32_t);

void EncodeRecord(SchemaId id, const SchemaSignature& signature,
                  unsigned char* out) {
  size_t offset = 0;
  std::memcpy(out + offset, &id, sizeof(id));
  offset += sizeof(id);
  std::memcpy(out + offset, signature.simhash, sizeof(signature.simhash));
  offset += sizeof(signature.simhash);
  std::memcpy(out + offset, signature.minhash, sizeof(signature.minhash));
  offset += sizeof(signature.minhash);
  std::memcpy(out + offset, &signature.crc, sizeof(signature.crc));
  offset += sizeof(signature.crc);
  const uint32_t record_crc = Crc32(out, kRecordPayload);
  std::memcpy(out + offset, &record_crc, sizeof(record_crc));
}

bool DecodeRecord(const unsigned char* in, SchemaId* id,
                  SchemaSignature* signature) {
  uint32_t record_crc = 0;
  std::memcpy(&record_crc, in + kRecordPayload, sizeof(record_crc));
  if (record_crc != Crc32(in, kRecordPayload)) return false;
  size_t offset = 0;
  std::memcpy(id, in + offset, sizeof(*id));
  offset += sizeof(*id);
  std::memcpy(signature->simhash, in + offset, sizeof(signature->simhash));
  offset += sizeof(signature->simhash);
  std::memcpy(signature->minhash, in + offset, sizeof(signature->minhash));
  offset += sizeof(signature->minhash);
  std::memcpy(&signature->crc, in + offset, sizeof(signature->crc));
  return VerifySignature(*signature);
}

}  // namespace

Status SaveSignatures(const std::string& path,
                      const MatchFeatureCatalog& catalog) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write signatures to " + path);
  out.write(kSignatureMagic, sizeof(kSignatureMagic));
  const uint32_t version = kSignatureVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t corpus_hash = catalog.CorpusHash();
  out.write(reinterpret_cast<const char*>(&corpus_hash), sizeof(corpus_hash));
  const uint64_t count = catalog.features().size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  unsigned char record[kRecordSize];
  for (const auto& [id, features] : catalog.features()) {
    EncodeRecord(id, features->signature, record);
    out.write(reinterpret_cast<const char*>(record), sizeof(record));
  }
  out.close();
  if (!out) return Status::IOError("failed writing signatures to " + path);
  return Status::OK();
}

Result<StoredSignatures> LoadSignatures(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open signatures at " + path);
  char magic[4];
  uint32_t version = 0;
  StoredSignatures stored;
  uint64_t count = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&stored.corpus_hash),
          sizeof(stored.corpus_hash));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || std::memcmp(magic, kSignatureMagic, sizeof(magic)) != 0 ||
      version != kSignatureVersion) {
    return Status::ParseError("bad signature file header in " + path);
  }
  unsigned char record[kRecordSize];
  for (uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(record), sizeof(record));
    if (!in) {
      // Truncated tail: everything unread counts as corrupt, the records
      // already decoded stay usable.
      stored.corrupt_records += count - i;
      break;
    }
    SchemaId id = kNoSchema;
    SchemaSignature signature;
    if (DecodeRecord(record, &id, &signature)) {
      stored.signatures.emplace(id, signature);
    } else {
      ++stored.corrupt_records;
    }
  }
  return stored;
}

}  // namespace schemr
