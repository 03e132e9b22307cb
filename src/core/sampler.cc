#include "core/sampler.h"

namespace supa {

InfluencedGraphSampler::InfluencedGraphSampler(
    const store::GraphStore& store, size_t num_node_types,
    std::vector<MetapathSchema> metapaths, int num_walks, int walk_len)
    : walker_(store),
      store_(&store),
      metapaths_(std::move(metapaths)),
      num_walks_(num_walks),
      walk_len_(walk_len),
      walks_counter_(
          obs::MetricsRegistry::Global().GetCounter("sampler.walks")),
      steps_counter_(
          obs::MetricsRegistry::Global().GetCounter("sampler.walk_steps")),
      arena_reuse_counter_(
          obs::MetricsRegistry::Global().GetCounter("sampler.arena_reuses")),
      arena_grow_counter_(
          obs::MetricsRegistry::Global().GetCounter("sampler.arena_grows")),
      walk_len_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "sampler.walk_len", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0})) {
  by_head_type_.resize(num_node_types);
  for (size_t i = 0; i < metapaths_.size(); ++i) {
    by_head_type_[metapaths_[i].head()].push_back(i);
  }
}

void InfluencedGraphSampler::SampleFromInto(NodeId start, Rng& rng,
                                            WalkBuffer* out) const {
  const auto& candidates = by_head_type_[store_->NodeType(start)];
  if (candidates.empty()) return;
  for (int w = 0; w < num_walks_; ++w) {
    const size_t mp = candidates[rng.Index(candidates.size())];
    walker_.SampleMetapathWalkInto(start, metapaths_[mp],
                                   static_cast<size_t>(walk_len_), rng, out);
  }
}

void InfluencedGraphSampler::SampleInto(NodeId u, NodeId v, Rng& rng,
                                        WalkBuffer* out,
                                        size_t* u_count) const {
  const size_t capacity_before = out->steps_capacity();
  out->Clear();
  SampleFromInto(u, rng, out);
  *u_count = out->num_walks();
  SampleFromInto(v, rng, out);

  // Steady-state contract of the arena: capacity stops changing once the
  // buffer has seen the largest influenced graph, making sampling
  // allocation-free. arena_grows flat-lining while arena_reuses climbs is
  // the observable signature of that.
  if (out->steps_capacity() == capacity_before) {
    arena_reuse_counter_.Increment();
  } else {
    arena_grow_counter_.Increment();
  }
  walks_counter_.Increment(out->num_walks());
  steps_counter_.Increment(out->num_steps());
  for (size_t w = 0; w < out->num_walks(); ++w) {
    walk_len_hist_.Observe(static_cast<double>(out->walk(w).size()));
  }
}

}  // namespace supa
