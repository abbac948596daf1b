#include "match/codebook.h"

#include <unordered_map>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace schemr {

const char* SemanticTypeName(SemanticType type) {
  switch (type) {
    case SemanticType::kUnknown:
      return "unknown";
    case SemanticType::kIdentifier:
      return "identifier";
    case SemanticType::kGeoLatitude:
      return "latitude";
    case SemanticType::kGeoLongitude:
      return "longitude";
    case SemanticType::kDate:
      return "date";
    case SemanticType::kTime:
      return "time";
    case SemanticType::kDateTime:
      return "datetime";
    case SemanticType::kYear:
      return "year";
    case SemanticType::kMoney:
      return "money";
    case SemanticType::kPercentage:
      return "percentage";
    case SemanticType::kLength:
      return "length";
    case SemanticType::kMass:
      return "mass";
    case SemanticType::kTemperature:
      return "temperature";
    case SemanticType::kCount:
      return "count";
    case SemanticType::kEmail:
      return "email";
    case SemanticType::kPhone:
      return "phone";
    case SemanticType::kUrl:
      return "url";
    case SemanticType::kPersonName:
      return "person name";
  }
  return "unknown";
}

namespace {

/// Unit-suffix tokens: a trailing token that names a measurement unit
/// classifies the attribute and records the unit.
const std::unordered_map<std::string, SemanticType>& UnitTable() {
  static const std::unordered_map<std::string, SemanticType> table = {
      {"cm", SemanticType::kLength},   {"mm", SemanticType::kLength},
      {"km", SemanticType::kLength},   {"meters", SemanticType::kLength},
      {"metres", SemanticType::kLength}, {"inches", SemanticType::kLength},
      {"feet", SemanticType::kLength}, {"ft", SemanticType::kLength},
      {"kg", SemanticType::kMass},     {"grams", SemanticType::kMass},
      {"lbs", SemanticType::kMass},    {"lb", SemanticType::kMass},
      {"tons", SemanticType::kMass},
      {"usd", SemanticType::kMoney},   {"eur", SemanticType::kMoney},
      {"gbp", SemanticType::kMoney},   {"dollars", SemanticType::kMoney},
      {"celsius", SemanticType::kTemperature},
      {"fahrenheit", SemanticType::kTemperature},
      {"percent", SemanticType::kPercentage},
      {"pct", SemanticType::kPercentage},
      {"hectares", SemanticType::kLength},  // area units folded into length
  };
  return table;
}

/// Keyword tokens anywhere in the name.
struct Keyword {
  SemanticType semantic;
  double confidence;
};

const std::unordered_map<std::string, Keyword>& KeywordTable() {
  static const std::unordered_map<std::string, Keyword> table = {
      {"latitude", {SemanticType::kGeoLatitude, 0.95}},
      {"lat", {SemanticType::kGeoLatitude, 0.7}},
      {"longitude", {SemanticType::kGeoLongitude, 0.95}},
      {"lon", {SemanticType::kGeoLongitude, 0.7}},
      {"lng", {SemanticType::kGeoLongitude, 0.7}},
      {"email", {SemanticType::kEmail, 0.95}},
      {"mail", {SemanticType::kEmail, 0.6}},
      {"phone", {SemanticType::kPhone, 0.9}},
      {"telephone", {SemanticType::kPhone, 0.95}},
      {"tel", {SemanticType::kPhone, 0.6}},
      {"fax", {SemanticType::kPhone, 0.7}},
      {"url", {SemanticType::kUrl, 0.95}},
      {"website", {SemanticType::kUrl, 0.8}},
      {"link", {SemanticType::kUrl, 0.5}},
      {"year", {SemanticType::kYear, 0.8}},
      {"price", {SemanticType::kMoney, 0.85}},
      {"cost", {SemanticType::kMoney, 0.8}},
      {"salary", {SemanticType::kMoney, 0.85}},
      {"amount", {SemanticType::kMoney, 0.5}},
      {"balance", {SemanticType::kMoney, 0.7}},
      {"fee", {SemanticType::kMoney, 0.7}},
      {"wage", {SemanticType::kMoney, 0.8}},
      {"height", {SemanticType::kLength, 0.7}},
      {"width", {SemanticType::kLength, 0.7}},
      {"depth", {SemanticType::kLength, 0.6}},
      {"distance", {SemanticType::kLength, 0.8}},
      {"diameter", {SemanticType::kLength, 0.8}},
      {"elevation", {SemanticType::kLength, 0.7}},
      {"weight", {SemanticType::kMass, 0.8}},
      {"mass", {SemanticType::kMass, 0.8}},
      {"temperature", {SemanticType::kTemperature, 0.9}},
      {"temp", {SemanticType::kTemperature, 0.6}},
      {"count", {SemanticType::kCount, 0.7}},
      {"quantity", {SemanticType::kCount, 0.75}},
      {"qty", {SemanticType::kCount, 0.7}},
      {"attendance", {SemanticType::kCount, 0.5}},
      {"percentage", {SemanticType::kPercentage, 0.9}},
      {"percentile", {SemanticType::kPercentage, 0.8}},
      {"surname", {SemanticType::kPersonName, 0.8}},
      {"forename", {SemanticType::kPersonName, 0.8}},
      {"firstname", {SemanticType::kPersonName, 0.8}},
      {"lastname", {SemanticType::kPersonName, 0.8}},
  };
  return table;
}

bool IsTemporalType(DataType type) {
  return type == DataType::kDate || type == DataType::kTime ||
         type == DataType::kDateTime;
}

}  // namespace

const Codebook& Codebook::Default() {
  static const Codebook* codebook = new Codebook();
  return *codebook;
}

CodebookEntry Codebook::Classify(const Element& element) const {
  CodebookEntry entry;
  if (element.kind != ElementKind::kAttribute) return entry;

  std::vector<std::string> tokens;
  for (const std::string& raw : TokenizeToStrings(element.name)) {
    tokens.push_back(ToLowerAscii(raw));
  }
  if (tokens.empty()) return entry;

  // 1. Unit suffix is the strongest signal: "height_cm", "weight_kg".
  const auto& units = UnitTable();
  auto unit_it = units.find(tokens.back());
  if (unit_it != units.end() && tokens.size() >= 2) {
    entry.semantic = unit_it->second;
    entry.unit = tokens.back();
    entry.confidence = 0.95;
    return entry;
  }

  // 2. Declared keys are identifiers regardless of name.
  if (element.primary_key) {
    entry.semantic = SemanticType::kIdentifier;
    entry.confidence = 0.95;
    return entry;
  }

  // 3. Temporal: declared type is decisive; "date"/"time" tokens back it
  // up for string-typed columns.
  if (IsTemporalType(element.type)) {
    entry.semantic = element.type == DataType::kDate ? SemanticType::kDate
                     : element.type == DataType::kTime
                         ? SemanticType::kTime
                         : SemanticType::kDateTime;
    entry.confidence = 0.9;
    return entry;
  }
  for (const std::string& token : tokens) {
    if (token == "date" || token == "dob") {
      entry.semantic = SemanticType::kDate;
      entry.confidence = 0.7;
      return entry;
    }
    if (token == "timestamp") {
      entry.semantic = SemanticType::kDateTime;
      entry.confidence = 0.8;
      return entry;
    }
  }

  // 4. Keyword table, first hit wins (names are short). Runs before the
  // identifier suffixes so "phone_number" is a phone, not a key.
  const auto& keywords = KeywordTable();
  for (const std::string& token : tokens) {
    auto it = keywords.find(token);
    if (it != keywords.end()) {
      entry.semantic = it->second.semantic;
      entry.confidence = it->second.confidence;
      return entry;
    }
  }

  // 5. Identifier-shaped names: "<x>_id", "invoice_number", ISBN/SKU.
  if (tokens.back() == "id" || tokens.back() == "identifier" ||
      tokens.back() == "key" || tokens.back() == "code" ||
      tokens.back() == "number" || tokens.back() == "isbn" ||
      tokens.back() == "sku") {
    entry.semantic = SemanticType::kIdentifier;
    entry.confidence = 0.7;
    return entry;
  }

  // 6. "first/last name" patterns.
  if (tokens.back() == "name" && tokens.size() >= 2 &&
      (tokens[0] == "first" || tokens[0] == "last" || tokens[0] == "full" ||
       tokens[0] == "middle" || tokens[0] == "maiden")) {
    entry.semantic = SemanticType::kPersonName;
    entry.confidence = 0.8;
    return entry;
  }
  return entry;
}

std::vector<AnnotatedElement> Codebook::AnnotateSchema(
    const Schema& schema) const {
  std::vector<AnnotatedElement> annotations;
  for (ElementId id = 0; id < schema.size(); ++id) {
    CodebookEntry entry = Classify(schema.element(id));
    if (entry.semantic != SemanticType::kUnknown) {
      annotations.push_back(AnnotatedElement{id, entry});
    }
  }
  return annotations;
}

double CodebookMatcher::EntrySimilarity(const CodebookEntry& a,
                                        const CodebookEntry& b) {
  if (a.semantic == SemanticType::kUnknown ||
      b.semantic == SemanticType::kUnknown) {
    // Uninformative: neutral score so the ensemble's other matchers
    // decide.
    return 0.3;
  }
  if (a.semantic != b.semantic) return 0.0;
  double score = std::min(a.confidence, b.confidence);
  // Same semantic type but different declared units ("height_cm" vs
  // "height_inches"): still the same concept, small penalty flags the
  // conversion.
  if (!a.unit.empty() && !b.unit.empty() && a.unit != b.unit) {
    score *= 0.85;
  }
  return score;
}

SimilarityMatrix CodebookMatcher::Match(const Schema& query,
                                        const Schema& candidate,
                                        const MatchContext&) const {
  const Codebook& codebook = Codebook::Default();
  SimilarityMatrix matrix(query.size(), candidate.size());
  std::vector<CodebookEntry> query_entries(query.size());
  std::vector<CodebookEntry> cand_entries(candidate.size());
  for (ElementId id = 0; id < query.size(); ++id) {
    query_entries[id] = codebook.Classify(query.element(id));
  }
  for (ElementId id = 0; id < candidate.size(); ++id) {
    cand_entries[id] = codebook.Classify(candidate.element(id));
  }
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      if (query.element(static_cast<ElementId>(r)).kind !=
          candidate.element(static_cast<ElementId>(c)).kind) {
        matrix.set(r, c, 0.0);
      } else {
        matrix.set(r, c,
                   EntrySimilarity(query_entries[r], cand_entries[c]));
      }
    }
  }
  return matrix;
}

}  // namespace schemr
