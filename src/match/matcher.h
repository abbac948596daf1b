// The matcher interface of the match engine.
//
// A matcher compares a query (itself represented as a schema: fragment
// trees plus keyword elements, see core/query_graph.h) against one
// candidate schema and emits a SimilarityMatrix. Matchers are composed by
// MatcherEnsemble; the paper highlights the name and context matchers but
// notes "other matchers may be used as well" -- we also provide data-type
// and structural matchers.

#ifndef SCHEMR_MATCH_MATCHER_H_
#define SCHEMR_MATCH_MATCHER_H_

#include <string>

#include "match/similarity_matrix.h"
#include "schema/schema.h"

namespace schemr {

struct SchemaFeatures;  // match/features.h
struct MatchScratch;    // match/features.h

/// What one ensemble invocation scores from: the columnar features of
/// both schemas (built at index time, and once per query) and the
/// term-pair memo, reset for this pair (MatcherEnsemble::Match and
/// PairFeatures do that). All three are required, so a matcher always
/// scores the features it is handed and never re-derives them.
struct MatchContext {
  const SchemaFeatures& query;
  const SchemaFeatures& candidate;
  MatchScratch& scratch;
};

/// Abstract element-level schema matcher.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Stable identifier used for weights, feature names and reports.
  virtual std::string Name() const = 0;

  /// Computes the |query| × |candidate| similarity matrix. All values must
  /// land in [0, 1] (SimilarityMatrix::set clamps as a backstop). Matchers
  /// that need no precomputed features ignore `context`.
  virtual SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                                 const MatchContext& context) const = 0;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_MATCHER_H_
