#include "store/embedding_bank.h"

#include <algorithm>
#include <cstring>

namespace supa::store {

EmbeddingLayout::EmbeddingLayout(std::shared_ptr<const NodeShardMap> map,
                                 size_t num_relations, size_t num_node_types,
                                 int dim)
    : map_(std::move(map)),
      map_raw_(map_.get()),
      num_relations_(num_relations),
      num_node_types_(num_node_types),
      dim_(static_cast<size_t>(dim)) {
  const size_t num_shards = map_raw_->num_shards();
  emb_base_.resize(num_shards + 1);
  short_base_.resize(num_shards);
  ctx_base_.resize(num_shards);
  size_t base = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t n_s = map_raw_->shard_size(s);
    emb_base_[s] = base;
    short_base_[s] = base + n_s * dim_;
    ctx_base_[s] = base + 2 * n_s * dim_;
    base += (2 + num_relations_) * n_s * dim_;
  }
  emb_base_[num_shards] = base;
  alpha_off_ = base;
  size_ = base + num_node_types_;
}

size_t EmbeddingLayout::ShardOfOffset(size_t offset) const {
  // Last emb_base_ entry <= offset.
  const auto it =
      std::upper_bound(emb_base_.begin(), emb_base_.end(), offset);
  return static_cast<size_t>(it - emb_base_.begin()) - 1;
}

size_t EmbeddingLayout::PhysicalToLogical(size_t offset) const {
  // The α tail sits at the same trailing offsets in both layouts.
  if (offset >= alpha_off_) return offset;
  const size_t s = ShardOfOffset(offset);
  const std::vector<NodeId>& nodes = map_raw_->shard_nodes(s);
  if (offset < short_base_[s]) {
    const size_t local = offset - emb_base_[s];
    return LogicalLongMemOffset(nodes[local / dim_]) + local % dim_;
  }
  if (offset < ctx_base_[s]) {
    const size_t local = offset - short_base_[s];
    return LogicalShortMemOffset(nodes[local / dim_]) + local % dim_;
  }
  const size_t local = offset - ctx_base_[s];
  const size_t row = local / dim_;
  return LogicalContextOffset(nodes[row / num_relations_],
                              static_cast<EdgeTypeId>(row % num_relations_)) +
         local % dim_;
}

EmbeddingBank::EmbeddingBank(std::shared_ptr<const EmbeddingLayout> layout,
                             double init_scale, Rng& rng)
    : layout_(std::move(layout)), L_(layout_.get()) {
  params_.resize(L_->size());
  const size_t d = static_cast<size_t>(L_->dim());
  const size_t n = L_->num_nodes();
  const size_t r_count = L_->num_relations();
  auto fill = [&](float* row) {
    for (size_t k = 0; k < d; ++k) {
      row[k] = static_cast<float>(rng.Gaussian(0.0, init_scale));
    }
  };
  for (NodeId v = 0; v < n; ++v) fill(LongMem(v));
  for (NodeId v = 0; v < n; ++v) fill(ShortMem(v));
  for (NodeId v = 0; v < n; ++v) {
    for (EdgeTypeId r = 0; r < r_count; ++r) fill(Context(v, r));
  }
  // α_o = 0 => drift coefficient σ(α) starts at 0.5.
  for (size_t i = L_->alpha_begin(); i < params_.size(); ++i) {
    params_[i] = 0.0f;
  }
}

namespace {

/// Copies every row between physical and logical positions; `to_logical`
/// picks the direction. The α tail occupies the same trailing offsets in
/// both layouts.
void Permute(const EmbeddingLayout& L, const float* src, float* dst,
             bool to_logical) {
  const size_t d = static_cast<size_t>(L.dim());
  const size_t row_bytes = d * sizeof(float);
  auto move_row = [&](size_t physical, size_t logical) {
    if (to_logical) {
      std::memcpy(dst + logical, src + physical, row_bytes);
    } else {
      std::memcpy(dst + physical, src + logical, row_bytes);
    }
  };
  for (NodeId v = 0; v < L.num_nodes(); ++v) {
    move_row(L.LongMemOffset(v), L.LogicalLongMemOffset(v));
    move_row(L.ShortMemOffset(v), L.LogicalShortMemOffset(v));
    for (EdgeTypeId r = 0; r < L.num_relations(); ++r) {
      move_row(L.ContextOffset(v, r), L.LogicalContextOffset(v, r));
    }
  }
  std::memcpy(dst + L.alpha_begin(), src + L.alpha_begin(),
              L.num_node_types() * sizeof(float));
}

}  // namespace

void EmbeddingBank::GatherLogical(const float* src, float* dst) const {
  Permute(*L_, src, dst, /*to_logical=*/true);
}

void EmbeddingBank::ScatterLogical(const float* src, float* dst) const {
  Permute(*L_, src, dst, /*to_logical=*/false);
}

}  // namespace supa::store
