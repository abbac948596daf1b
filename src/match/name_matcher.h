// Name matcher: normalized n-gram overlap between element names.
//
// "A name matcher normalizes terms and computes n-gram overlap between
// query terms and terms in the indexed schemas. ... We found this matcher
// to be particularly helpful for properly ranking schemas containing
// abbreviated terms, alternate grammatical forms, and delimiter characters
// not in the original query." (paper Sec. 2)
//
// Normalization (tokenize, lowercase, stem) and the character n-gram
// profiles happen at index time, in the feature catalog (match/features.h,
// which also holds the banding options: the exhaustive n = 1..len profile
// of the paper, or the cheaper banded default). The similarity of two
// words is the Dice coefficient over their gram multisets, lifted by
// abbreviation and synonym bonuses; word-level maximum alignment handles
// multi-word names.

#ifndef SCHEMR_MATCH_NAME_MATCHER_H_
#define SCHEMR_MATCH_NAME_MATCHER_H_

#include <string>

#include "match/matcher.h"

namespace schemr {

struct TermFeature;  // match/features.h

/// Match-time options; how names are normalized and profiled is fixed by
/// the catalog (FeatureBuildOptions).
struct NameMatcherOptions {
  /// Consult the synonym lexicon: known pairs like gender↔sex (which
  /// share no character grams) score 0.85 at word level.
  bool use_synonyms = true;
};

/// Element-name similarity via character n-gram overlap.
class NameMatcher : public Matcher {
 public:
  explicit NameMatcher(NameMatcherOptions options = {}) : options_(options) {}

  std::string Name() const override { return "name"; }

  /// Word alignment, concatenation rescue and acronym detection over the
  /// precomputed names, with word pairs scored through the shared memo.
  SimilarityMatrix Match(const Schema& query, const Schema& candidate,
                         const MatchContext& context) const override;

  /// Single-word similarity: packed n-gram Dice, lifted by prefix-
  /// abbreviation ("pat" vs "patient"), subsequence-abbreviation ("qty"
  /// vs "quantity") and synonym bonuses. The function the shared term-pair
  /// memo caches (MemoizedTermSimilarity).
  double WordSimilarity(const TermFeature& a, const TermFeature& b) const;

  const NameMatcherOptions& options() const { return options_; }

 private:
  NameMatcherOptions options_;
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_NAME_MATCHER_H_
