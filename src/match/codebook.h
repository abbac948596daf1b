// Codebook: standardized semantic types and units for schema attributes.
//
// The paper's Applications section proposes "integrating Schemr's search
// functionality with a codebook that contains data types like units,
// date/time, and geographic location", encouraging deeper standardization
// alongside search. This module classifies attributes into semantic types
// (geographic coordinate, money, length, date, email, ...) with detected
// unit suffixes ("height_cm" → kLength/"cm"), annotates whole schemas,
// and contributes a CodebookMatcher to the ensemble: two attributes that
// both mean "a latitude" match even when their names diverge.

#ifndef SCHEMR_MATCH_CODEBOOK_H_
#define SCHEMR_MATCH_CODEBOOK_H_

#include <string>
#include <vector>

#include "match/matcher.h"
#include "schema/schema.h"

namespace schemr {

/// Standardized semantic categories of attribute values.
enum class SemanticType : uint8_t {
  kUnknown = 0,
  kIdentifier,    ///< primary/foreign key material
  kGeoLatitude,
  kGeoLongitude,
  kDate,
  kTime,
  kDateTime,
  kYear,
  kMoney,
  kPercentage,
  kLength,
  kMass,
  kTemperature,
  kCount,
  kEmail,
  kPhone,
  kUrl,
  kPersonName,
};

/// Stable lowercase name of a semantic type.
const char* SemanticTypeName(SemanticType type);

/// One classification verdict.
struct CodebookEntry {
  SemanticType semantic = SemanticType::kUnknown;
  /// Detected unit suffix ("cm", "kg", "usd", "percent"); empty if none.
  std::string unit;
  /// Heuristic confidence in [0, 1]; 0 when unknown.
  double confidence = 0.0;
};

/// A schema element together with its classification.
struct AnnotatedElement {
  ElementId element = kNoElement;
  CodebookEntry entry;
};

/// The codebook: name/type → semantic classification rules.
class Codebook {
 public:
  /// The built-in codebook (units, temporal, geographic, contact,
  /// monetary vocabulary).
  static const Codebook& Default();

  /// Classifies one attribute by its name tokens and declared data type.
  /// Entities and unclassifiable attributes return kUnknown.
  CodebookEntry Classify(const Element& element) const;

  /// Classifies every attribute of a schema; kUnknown entries are
  /// omitted.
  std::vector<AnnotatedElement> AnnotateSchema(const Schema& schema) const;

 private:
  Codebook() = default;
};

/// Ensemble matcher over codebook classifications: identical known
/// semantic types score 1 (with a small penalty for unit mismatch),
/// conflicting known types score 0, unknown pairs are neutral.
class CodebookMatcher : public Matcher {
 public:
  std::string Name() const override { return "codebook"; }

  SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                         const MatchContext& context) const override;

  /// Pair score used by Match (exposed for tests).
  static double EntrySimilarity(const CodebookEntry& a,
                                const CodebookEntry& b);
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_CODEBOOK_H_
