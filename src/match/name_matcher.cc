#include "match/name_matcher.h"

#include <algorithm>

#include "match/features.h"
#include "text/lexicon.h"

namespace schemr {

namespace {

/// True if `needle` is a subsequence of `haystack` sharing its first
/// character ("qty" ⊑ "quantity", "ht" ⊑ "height") -- the shape of
/// consonant-skeleton abbreviations.
bool IsAbbreviationSubsequence(const std::string& needle,
                               const std::string& haystack) {
  if (needle.empty() || haystack.empty() || needle[0] != haystack[0]) {
    return false;
  }
  // Stemming rewrites y→i ("quantity" → "quantiti") but leaves vowel-free
  // abbreviations like "qty" untouched; fold the two together here.
  auto fold = [](char c) { return c == 'y' ? 'i' : c; };
  size_t h = 0;
  for (char raw : needle) {
    char c = fold(raw);
    while (h < haystack.size() && fold(haystack[h]) != c) ++h;
    if (h == haystack.size()) return false;
    ++h;
  }
  return true;
}

}  // namespace

double NameMatcher::WordSimilarity(const TermFeature& a,
                                   const TermFeature& b) const {
  double dice = PackedDice(a.profile, b.profile);
  const std::string& shorter = a.text.size() <= b.text.size() ? a.text : b.text;
  const std::string& longer = a.text.size() <= b.text.size() ? b.text : a.text;
  if (shorter.size() >= 2 && shorter.size() < longer.size()) {
    double coverage = static_cast<double>(shorter.size()) /
                      static_cast<double>(longer.size());
    if (longer.compare(0, shorter.size(), shorter) == 0) {
      // Prefix abbreviations ("pat" for "patient", "obs" for
      // "observation") share few long grams, so pure Dice under-scores
      // exactly the case the paper highlights.
      dice = std::max(dice, 0.55 + 0.45 * coverage);
    } else if (IsAbbreviationSubsequence(shorter, longer)) {
      // Consonant-skeleton abbreviations ("qty" for "quantity", "ht" for
      // "height"): weaker evidence than a prefix, still far above random
      // gram overlap.
      dice = std::max(dice, 0.35 + 0.35 * coverage);
    }
  }
  // Synonyms (gender↔sex) share no grams at all; only the lexicon can
  // recover them.
  if (options_.use_synonyms && dice < 0.85 && AreSynonyms(a.text, b.text)) {
    dice = 0.85;
  }
  return dice;
}

namespace {

/// Name-vs-name similarity: every word finds its best counterpart and the
/// two directional sums combine into a generalized Dice; the concatenated
/// words rescue cross-word grams ("dateofbirth" vs "date_of_birth"); a
/// single short word equal to the other side's initials is an acronym
/// ("dob" vs date_of_birth). Sums iterate words in name order.
double PairSimilarity(const NameMatcher& matcher, const MatchContext& context,
                      const NameFeature& a, const NameFeature& b) {
  if (a.words.empty() || b.words.empty()) return 0.0;

  double sum_a = 0.0;
  for (uint32_t qw : a.words) {
    double best = 0.0;
    for (uint32_t cw : b.words) {
      best = std::max(best, MemoizedTermSimilarity(matcher, context, qw, cw));
    }
    sum_a += best;
  }
  double sum_b = 0.0;
  for (uint32_t cw : b.words) {
    double best = 0.0;
    for (uint32_t qw : a.words) {
      best = std::max(best, MemoizedTermSimilarity(matcher, context, qw, cw));
    }
    sum_b += best;
  }
  double score = (sum_a + sum_b) /
                 static_cast<double>(a.words.size() + b.words.size());

  score = std::max(score, MemoizedTermSimilarity(matcher, context, a.concat,
                                                 b.concat));

  auto acronym = [](const NameFeature& single, const SchemaFeatures& sf,
                    const NameFeature& multi) {
    return single.words.size() == 1 && multi.words.size() >= 2 &&
           sf.terms[single.words[0]].text == multi.initials;
  };
  if (acronym(a, context.query, b) || acronym(b, context.candidate, a)) {
    score = std::max(score, 0.8);
  }
  return score;
}

}  // namespace

SimilarityMatrix NameMatcher::Match(const Schema& query,
                                    const Schema& candidate,
                                    const MatchContext& context) const {
  context.scratch.Bind(options_.use_synonyms);
  SimilarityMatrix matrix(query.size(), candidate.size());
  for (size_t r = 0; r < query.size(); ++r) {
    for (size_t c = 0; c < candidate.size(); ++c) {
      matrix.set(r, c,
                 PairSimilarity(*this, context, context.query.names[r],
                                context.candidate.names[c]));
    }
  }
  return matrix;
}

}  // namespace schemr
