// Structural matcher: positional similarity of elements within their
// schemas.
//
// Another of the paper's "other matchers". Two elements are structurally
// similar when they play the same role: same kind (entity vs attribute),
// similar depth in the containment forest, and similar fan-out (children
// count for entities). This matcher is name-blind on purpose -- combined
// with the name matcher it disambiguates, e.g., an entity called "address"
// from an attribute called "address".

#ifndef SCHEMR_MATCH_STRUCTURE_MATCHER_H_
#define SCHEMR_MATCH_STRUCTURE_MATCHER_H_

#include <string>

#include "match/matcher.h"

namespace schemr {

struct StructureMatcherOptions {
  /// Score multiplier per level of depth difference (exponential decay).
  double depth_decay = 0.5;
  /// Weight of fan-out similarity vs depth similarity.
  double fanout_weight = 0.4;
};

class StructureMatcher : public Matcher {
 public:
  explicit StructureMatcher(StructureMatcherOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "structure"; }

  SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                         const MatchContext& context) const override;

 private:
  StructureMatcherOptions options_;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_STRUCTURE_MATCHER_H_
