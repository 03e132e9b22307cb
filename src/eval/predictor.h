// Top-K recommendation (§III-F.1): rank all target-type candidates by
// γ(u, v, r) and return the best K, optionally excluding items the user
// has already interacted with.

#ifndef SUPA_EVAL_PREDICTOR_H_
#define SUPA_EVAL_PREDICTOR_H_

#include <cmath>
#include <vector>

#include "data/dataset.h"
#include "eval/recommender.h"

namespace supa {

/// One ranked recommendation.
struct ScoredItem {
  NodeId item = kInvalidNode;
  double score = 0.0;

  bool operator==(const ScoredItem&) const = default;
};

/// The rank order of top-K answers: true when a ranks above b — higher
/// score, then smaller node id, with NaN below every number (NaNs by id),
/// so the order is total. RecommendTopK and the serving engine rank by it.
inline bool RanksAbove(const ScoredItem& a, const ScoredItem& b) {
  const bool a_nan = std::isnan(a.score);
  const bool b_nan = std::isnan(b.score);
  if (a_nan || b_nan) return a_nan == b_nan ? a.item < b.item : b_nan;
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// Options for top-K retrieval.
struct TopKOptions {
  size_t k = 10;
  /// Candidates the user already touched under the query relation within
  /// [seen.begin, seen.end) are removed.
  bool exclude_seen = true;
  EdgeRange seen;
};

/// Returns the top-K target-type nodes for `user` under `relation`,
/// descending by score (ties broken by smaller node id; a NaN score ranks
/// below every number). K is clipped to the candidate count.
Result<std::vector<ScoredItem>> RecommendTopK(const Recommender& model,
                                              const Dataset& data,
                                              NodeId user,
                                              EdgeTypeId relation,
                                              const TopKOptions& options);

}  // namespace supa

#endif  // SUPA_EVAL_PREDICTOR_H_
