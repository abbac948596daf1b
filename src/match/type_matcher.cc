#include "match/type_matcher.h"

namespace schemr {

namespace {

enum class TypeFamily { kNone, kIntegral, kFractional, kString, kTemporal,
                        kBool, kBinary };

TypeFamily FamilyOf(DataType t) {
  switch (t) {
    case DataType::kNone:
      return TypeFamily::kNone;
    case DataType::kInt32:
    case DataType::kInt64:
      return TypeFamily::kIntegral;
    case DataType::kFloat:
    case DataType::kDouble:
    case DataType::kDecimal:
      return TypeFamily::kFractional;
    case DataType::kString:
    case DataType::kText:
      return TypeFamily::kString;
    case DataType::kDate:
    case DataType::kTime:
    case DataType::kDateTime:
      return TypeFamily::kTemporal;
    case DataType::kBool:
      return TypeFamily::kBool;
    case DataType::kBinary:
      return TypeFamily::kBinary;
  }
  return TypeFamily::kNone;
}

/// True for the lossless widenings we recognize.
bool IsWidening(DataType a, DataType b) {
  auto widens = [](DataType narrow, DataType wide) {
    return (narrow == DataType::kInt32 && wide == DataType::kInt64) ||
           (narrow == DataType::kFloat && wide == DataType::kDouble) ||
           (narrow == DataType::kInt32 && wide == DataType::kDouble) ||
           (narrow == DataType::kInt32 && wide == DataType::kDecimal) ||
           (narrow == DataType::kInt64 && wide == DataType::kDecimal) ||
           (narrow == DataType::kString && wide == DataType::kText) ||
           (narrow == DataType::kDate && wide == DataType::kDateTime);
  };
  return widens(a, b) || widens(b, a);
}

}  // namespace

double DataTypeCompatibility(DataType a, DataType b) {
  if (a == b) return 1.0;
  if (IsWidening(a, b)) return 0.8;
  TypeFamily fa = FamilyOf(a);
  TypeFamily fb = FamilyOf(b);
  if (fa == fb) return 0.6;
  // Numeric families interconvert with rounding risk.
  if ((fa == TypeFamily::kIntegral && fb == TypeFamily::kFractional) ||
      (fa == TypeFamily::kFractional && fb == TypeFamily::kIntegral)) {
    return 0.5;
  }
  // Everything prints into a string.
  if (fa == TypeFamily::kString || fb == TypeFamily::kString) return 0.3;
  return 0.0;
}

SimilarityMatrix TypeMatcher::Match(const Schema& query,
                                    const Schema& candidate,
                                    const MatchContext&) const {
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    const Element& q = query.element(static_cast<ElementId>(r));
    for (size_t c = 0; c < candidate.size(); ++c) {
      const Element& e = candidate.element(static_cast<ElementId>(c));
      if (q.kind != e.kind) {
        matrix.set(r, c, 0.0);
      } else if (q.kind == ElementKind::kEntity) {
        matrix.set(r, c, 1.0);  // entities have no data type to disagree on
      } else {
        matrix.set(r, c, DataTypeCompatibility(q.type, e.type));
      }
    }
  }
  return matrix;
}

}  // namespace schemr
