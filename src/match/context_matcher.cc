#include "match/context_matcher.h"

#include <algorithm>

#include "match/features.h"

namespace schemr {

SimilarityMatrix ContextMatcher::Match(const Schema& query,
                                       const Schema& candidate,
                                       const MatchContext& context) const {
  const SchemaFeatures& qf = context.query;
  const SchemaFeatures& cf = context.candidate;
  SimilarityMatrix matrix(query.size(), candidate.size());

  if (!options_.soft_alignment) {
    // Exact Jaccard over the sorted term lists, merged by term text.
    for (size_t r = 0; r < query.size(); ++r) {
      const std::vector<uint32_t>& a = qf.neighborhoods[r];
      for (size_t c = 0; c < candidate.size(); ++c) {
        const std::vector<uint32_t>& b = cf.neighborhoods[c];
        if (a.empty() || b.empty()) {
          matrix.set(r, c, 0.0);
          continue;
        }
        size_t i = 0, j = 0, inter = 0;
        while (i < a.size() && j < b.size()) {
          const int cmp = qf.terms[a[i]].text.compare(cf.terms[b[j]].text);
          if (cmp == 0) {
            ++inter;
            ++i;
            ++j;
          } else if (cmp < 0) {
            ++i;
          } else {
            ++j;
          }
        }
        matrix.set(r, c, static_cast<double>(inter) /
                             static_cast<double>(a.size() + b.size() - inter));
      }
    }
    return matrix;
  }

  // Soft Jaccard: each term aligns with its best counterpart; alignments
  // below the threshold contribute nothing. Sums iterate the sorted term
  // order of the neighborhood lists.
  context.scratch.Bind(name_matcher_.options().use_synonyms);
  for (size_t r = 0; r < query.size(); ++r) {
    const std::vector<uint32_t>& a = qf.neighborhoods[r];
    for (size_t c = 0; c < candidate.size(); ++c) {
      const std::vector<uint32_t>& b = cf.neighborhoods[c];
      double sum_a = 0.0;
      for (uint32_t t : a) {
        double best = 0.0;
        for (uint32_t u : b) {
          best = std::max(best, MemoizedTermSimilarity(name_matcher_,
                                                       context, t, u));
          if (best >= 1.0) break;
        }
        if (best >= options_.soft_threshold) sum_a += best;
      }
      double sum_b = 0.0;
      for (uint32_t u : b) {
        double best = 0.0;
        for (uint32_t t : a) {
          best = std::max(best, MemoizedTermSimilarity(name_matcher_,
                                                       context, t, u));
          if (best >= 1.0) break;
        }
        if (best >= options_.soft_threshold) sum_b += best;
      }
      const double inter = (sum_a + sum_b) / 2.0;
      const double uni = static_cast<double>(a.size() + b.size()) - inter;
      matrix.set(r, c, uni <= 0.0 ? 0.0 : inter / uni);
    }
  }
  return matrix;
}

}  // namespace schemr
