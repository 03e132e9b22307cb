#include "eval/predictor.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

namespace supa {

Result<std::vector<ScoredItem>> RecommendTopK(const Recommender& model,
                                              const Dataset& data,
                                              NodeId user,
                                              EdgeTypeId relation,
                                              const TopKOptions& options) {
  if (user >= data.num_nodes()) {
    return Status::OutOfRange("user id out of range");
  }
  if (relation >= data.schema.num_edge_types()) {
    return Status::OutOfRange("relation id out of range");
  }
  if (options.seen.end > data.edges.size()) {
    return Status::OutOfRange("seen range out of range");
  }

  std::unordered_set<NodeId> seen_items;
  if (options.exclude_seen) {
    for (size_t i = options.seen.begin; i < options.seen.end; ++i) {
      const auto& e = data.edges[i];
      if (e.type != relation) continue;
      if (e.src == user) seen_items.insert(e.dst);
      if (e.dst == user) seen_items.insert(e.src);
    }
  }

  // Heap of the current best K whose top is the lowest-ranked of them.
  std::priority_queue<ScoredItem, std::vector<ScoredItem>,
                      decltype(&RanksAbove)>
      heap(&RanksAbove);

  for (NodeId item : data.TargetNodes()) {
    if (item == user || seen_items.contains(item)) continue;
    const ScoredItem entry{item, model.Score(user, item, relation)};
    if (heap.size() < options.k) {
      heap.push(entry);
    } else if (RanksAbove(entry, heap.top())) {
      heap.pop();
      heap.push(entry);
    }
  }

  std::vector<ScoredItem> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

}  // namespace supa
