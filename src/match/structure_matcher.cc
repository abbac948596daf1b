#include "match/structure_matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace schemr {

SimilarityMatrix StructureMatcher::Match(const Schema& query,
                                         const Schema& candidate,
                                         const MatchContext&) const {
  SimilarityMatrix matrix(query.size(), candidate.size());
  std::vector<size_t> query_depths(query.size());
  std::vector<size_t> cand_depths(candidate.size());
  for (ElementId id = 0; id < query.size(); ++id) {
    query_depths[id] = query.Depth(id);
  }
  for (ElementId id = 0; id < candidate.size(); ++id) {
    cand_depths[id] = candidate.Depth(id);
  }

  for (size_t r = 0; r < query.size(); ++r) {
    const Element& q = query.element(static_cast<ElementId>(r));
    size_t q_fanout = query.Children(static_cast<ElementId>(r)).size();
    for (size_t c = 0; c < candidate.size(); ++c) {
      const Element& e = candidate.element(static_cast<ElementId>(c));
      if (q.kind != e.kind) {
        matrix.set(r, c, 0.0);
        continue;
      }
      long depth_diff =
          std::labs(static_cast<long>(query_depths[r]) -
                    static_cast<long>(cand_depths[c]));
      double depth_sim =
          std::pow(options_.depth_decay, static_cast<double>(depth_diff));

      double fanout_sim = 1.0;
      if (q.kind == ElementKind::kEntity) {
        size_t e_fanout = candidate.Children(static_cast<ElementId>(c)).size();
        size_t lo = std::min(q_fanout, e_fanout);
        size_t hi = std::max(q_fanout, e_fanout);
        fanout_sim = hi == 0 ? 1.0
                             : static_cast<double>(lo) /
                                   static_cast<double>(hi);
      }
      double score = (1.0 - options_.fanout_weight) * depth_sim +
                     options_.fanout_weight * fanout_sim;
      matrix.set(r, c, score);
    }
  }
  return matrix;
}

}  // namespace schemr
