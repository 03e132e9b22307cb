#include "store/embedding_bank.h"

#include <algorithm>
#include <cstring>

#include "util/rng.h"

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

size_t EmbeddingLayout::LogicalToPhysical(size_t offset) const {
  if (offset >= alpha_off_) return offset;
  const size_t n = map_raw_->num_nodes();
  const size_t row = offset / dim_;
  const size_t col = offset % dim_;
  if (row < n) return LongMemOffset(static_cast<NodeId>(row)) + col;
  if (row < 2 * n) return ShortMemOffset(static_cast<NodeId>(row - n)) + col;
  const size_t ctx = row - 2 * n;
  return ContextOffset(static_cast<NodeId>(ctx / num_relations_),
                       static_cast<EdgeTypeId>(ctx % num_relations_)) +
         col;
}

EmbeddingBank::EmbeddingBank(std::shared_ptr<const EmbeddingLayout> layout,
                             double init_scale, uint64_t seed)
    : layout_(std::move(layout)),
      L_(layout_.get()),
      // Zero-filled: α_o = 0 => drift coefficient σ(α) starts at 0.5.
      params_(L_->size(), 0.0f) {
  const size_t d = static_cast<size_t>(L_->dim());
  for (size_t row = 0; row < L_->alpha_begin() / d; ++row) {
    Rng rng(SplitMix64At(seed, row));
    float* out = params_.data() + L_->LogicalToPhysical(row * d);
    for (size_t k = 0; k < d; ++k) {
      out[k] = static_cast<float>(rng.Gaussian(0.0, init_scale));
    }
  }
}

void EmbeddingBank::GatherLogical(const float* src, float* dst) const {
  const size_t row_bytes = static_cast<size_t>(L_->dim()) * sizeof(float);
  for (NodeId v = 0; v < L_->num_nodes(); ++v) {
    std::memcpy(dst + L_->LogicalLongMemOffset(v), src + L_->LongMemOffset(v),
                row_bytes);
    std::memcpy(dst + L_->LogicalShortMemOffset(v),
                src + L_->ShortMemOffset(v), row_bytes);
    for (EdgeTypeId r = 0; r < L_->num_relations(); ++r) {
      std::memcpy(dst + L_->LogicalContextOffset(v, r),
                  src + L_->ContextOffset(v, r), row_bytes);
    }
  }
  // The α tail occupies the same trailing offsets in both layouts.
  std::memcpy(dst + L_->alpha_begin(), src + L_->alpha_begin(),
              L_->num_node_types() * sizeof(float));
}

void EmbeddingBank::ScatterLogicalRange(const float* src, size_t offset,
                                        size_t n, float* dst) const {
  // At one shard the two layouts coincide.
  if (L_->num_shards() == 1) {
    std::memcpy(dst + offset, src, n * sizeof(float));
    return;
  }
  const size_t end = offset + n;
  const size_t d = static_cast<size_t>(L_->dim());
  size_t pos = offset;
  while (pos < end && pos < L_->alpha_begin()) {
    const size_t row_end = std::min(pos - pos % d + d, end);
    std::memcpy(dst + L_->LogicalToPhysical(pos), src + (pos - offset),
                (row_end - pos) * sizeof(float));
    pos = row_end;
  }
  // The α tail sits at the same trailing offsets in both layouts.
  std::memcpy(dst + pos, src + (pos - offset), (end - pos) * sizeof(float));
}

}  // namespace supa::store
