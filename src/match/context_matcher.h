// Context matcher: neighborhood term-set similarity.
//
// "A context matcher builds a set of terms from neighboring elements, and
// tries to capture matches when neighboring-element sets are similar to
// each other." (paper Sec. 2, following Rahm & Bernstein's survey)
//
// The neighborhood of an element gathers terms from: the element itself,
// its parent, its children, its siblings, and -- for attributes -- the
// names of FK-linked entities of its containing entity. Two neighborhoods
// are compared with a soft Jaccard: terms align by exact equality or, when
// enabled, by n-gram similarity above a threshold (so "pat" in a query
// neighborhood still aligns with "patient").

#ifndef SCHEMR_MATCH_CONTEXT_MATCHER_H_
#define SCHEMR_MATCH_CONTEXT_MATCHER_H_

#include <string>

#include "match/matcher.h"
#include "match/name_matcher.h"

namespace schemr {

/// Match-time options; which terms a neighborhood gathers is fixed by the
/// catalog (FeatureBuildOptions::include_fk_neighbors).
struct ContextMatcherOptions {
  /// Use n-gram soft term alignment (slower, fuzzier). When false, terms
  /// align only on exact equality after normalization.
  bool soft_alignment = true;
  /// Minimum n-gram similarity for a soft alignment to count.
  double soft_threshold = 0.55;
};

/// Neighborhood term-set matcher.
class ContextMatcher : public Matcher {
 public:
  explicit ContextMatcher(ContextMatcherOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "context"; }

  /// Soft (or exact) Jaccard between the precomputed neighborhood term
  /// lists, with term pairs scored through the memo shared with the name
  /// matcher.
  SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                         const MatchContext& context) const override;

 private:
  ContextMatcherOptions options_;
  NameMatcher name_matcher_;  // provides the soft-alignment similarity
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_CONTEXT_MATCHER_H_
