// Data-type matcher: compatibility of attribute data types.
//
// One of the "other matchers" the paper allows in the ensemble. Exact
// type equality scores 1.0; losslessly widening conversions (int32→int64,
// float→double) score high; same-family types (the numeric family, the
// temporal family) score medium; anything can round-trip through a string
// with some loss; unrelated families score 0. Entity/entity pairs score by
// kind agreement only; entity/attribute pairs score 0.

#ifndef SCHEMR_MATCH_TYPE_MATCHER_H_
#define SCHEMR_MATCH_TYPE_MATCHER_H_

#include <string>

#include "match/matcher.h"

namespace schemr {

/// Pairwise compatibility of two data types, in [0, 1]. Symmetric.
double DataTypeCompatibility(DataType a, DataType b);

/// Type-compatibility matcher. Because queries often carry no type
/// information (keywords default to kString), this matcher is most useful
/// as a tie-breaker with a modest ensemble weight.
class TypeMatcher : public Matcher {
 public:
  std::string Name() const override { return "type"; }

  SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                         const MatchContext& context) const override;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_TYPE_MATCHER_H_
