// Shard-colocated parameter storage for SUPA's four embedding banks.
//
// One contiguous float buffer, laid out shard-major so every row a shard
// owns (its nodes' h^L, h^S, and c^r rows) is a single cache-friendly
// region addressed by shard-local row numbers:
//
//   [shard 0: h^L rows | h^S rows | c^r rows][shard 1: ...]...[α tail]
//
// Within a shard, rows are ordered by local id (ascending node id), so
// with one shard the buffer is byte-identical to the historical monolith
// layout [all h^L][all h^S][all c^r][α]. Consumers never see the physical
// arrangement: they address rows through offsets, which stay opaque to the
// sparse optimizer, gradient buffer, and its write barrier. Anything that
// must be layout-*invariant* across shard counts (checkpoints) converts
// through GatherLogical / ScatterLogicalRange.

#ifndef SUPA_STORE_EMBEDDING_BANK_H_
#define SUPA_STORE_EMBEDDING_BANK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "store/shard_map.h"

namespace supa::store {

/// Immutable offset geometry: where each (node, bank) row lives in the
/// physical buffer, and where it would live in the canonical *logical*
/// layout (the S=1 monolith order used by checkpoints). Shared by the
/// live bank and every published snapshot.
class EmbeddingLayout {
 public:
  EmbeddingLayout(std::shared_ptr<const NodeShardMap> map,
                  size_t num_relations, size_t num_node_types, int dim);

  // -- Physical offsets (floats into the banked buffer) --
  size_t LongMemOffset(NodeId v) const {
    return emb_base_[map_raw_->shard_of(v)] +
           static_cast<size_t>(map_raw_->local_of(v)) * dim_;
  }
  size_t ShortMemOffset(NodeId v) const {
    return short_base_[map_raw_->shard_of(v)] +
           static_cast<size_t>(map_raw_->local_of(v)) * dim_;
  }
  size_t ContextOffset(NodeId v, EdgeTypeId r) const {
    return ctx_base_[map_raw_->shard_of(v)] +
           (static_cast<size_t>(map_raw_->local_of(v)) * num_relations_ + r) *
               dim_;
  }
  size_t AlphaOffset(NodeTypeId o) const { return alpha_off_ + o; }

  // -- Rows (dim floats each), numbered from 0 within the owning shard in
  //    physical order: row i starts at shard_begin(s) + i * dim. --
  size_t LongMemRow(NodeId v) const { return map_raw_->local_of(v); }
  size_t ShortMemRow(NodeId v) const {
    return map_raw_->shard_size(map_raw_->shard_of(v)) + map_raw_->local_of(v);
  }
  size_t ContextRow(NodeId v, EdgeTypeId r) const {
    return 2 * map_raw_->shard_size(map_raw_->shard_of(v)) +
           static_cast<size_t>(map_raw_->local_of(v)) * num_relations_ + r;
  }
  /// The shard whose region holds physical `offset` (< alpha_begin()).
  /// O(log S).
  size_t ShardOfOffset(size_t offset) const;

  // -- Logical offsets (the canonical S=1 order; checkpoint format) --
  size_t LogicalLongMemOffset(NodeId v) const { return v * dim_; }
  size_t LogicalShortMemOffset(NodeId v) const {
    return (map_raw_->num_nodes() + v) * dim_;
  }
  size_t LogicalContextOffset(NodeId v, EdgeTypeId r) const {
    return 2 * map_raw_->num_nodes() * dim_ +
           (static_cast<size_t>(v) * num_relations_ + r) * dim_;
  }

  /// Inverts the physical layout: the logical offset of the float that
  /// lives at physical `offset`. Rows occupy contiguous same-length spans
  /// in both layouts, so converting a dirty row's starting offset relocates
  /// the whole row — this is how delta checkpoints serialize dirty rows in
  /// shard-count-invariant coordinates. O(log S) shard search plus O(log
  /// n_s) reverse node lookup.
  size_t PhysicalToLogical(size_t offset) const;

  /// The inverse: the physical offset of the float at logical `offset`.
  /// O(1).
  size_t LogicalToPhysical(size_t offset) const;

  // -- Per-shard regions (for snapshot copies and byte accounting). The α
  //    tail belongs to no shard; it rides with shard 0's write ordering. --
  size_t shard_begin(size_t s) const { return emb_base_[s]; }
  size_t shard_end(size_t s) const { return emb_base_[s + 1]; }
  size_t shard_rows(size_t s) const {
    return (shard_end(s) - shard_begin(s)) / dim_;
  }
  size_t alpha_begin() const { return alpha_off_; }

  size_t size() const { return size_; }
  int dim() const { return static_cast<int>(dim_); }
  size_t num_nodes() const { return map_raw_->num_nodes(); }
  size_t num_relations() const { return num_relations_; }
  size_t num_node_types() const { return num_node_types_; }
  size_t num_shards() const { return map_raw_->num_shards(); }
  const NodeShardMap& map() const { return *map_raw_; }

 private:
  std::shared_ptr<const NodeShardMap> map_;
  const NodeShardMap* map_raw_;
  size_t num_relations_;
  size_t num_node_types_;
  size_t dim_;
  std::vector<size_t> emb_base_;    // S+1 entries; [s], [s+1]) is shard s.
  std::vector<size_t> short_base_;  // h^S region start per shard.
  std::vector<size_t> ctx_base_;    // c^r region start per shard.
  size_t alpha_off_;
  size_t size_;
};

/// The live parameter buffer. Not copyable: a bank can hold hundreds of
/// MB, and whole-state copies go through Snapshot() explicitly.
class EmbeddingBank {
 public:
  /// Allocates and randomly initializes all parameters with
  /// N(0, init_scale²); α starts at 0. Logical row ℓ (the row at logical
  /// offset ℓ·d: all h^L by node id, all h^S, then c^r node-major) draws
  /// its d values from its own stream, Rng(SplitMix64At(seed, ℓ)), so the
  /// initial bytes depend on neither the shard count nor the order in
  /// which rows are filled.
  EmbeddingBank(std::shared_ptr<const EmbeddingLayout> layout,
                double init_scale, uint64_t seed);

  EmbeddingBank(const EmbeddingBank&) = delete;
  EmbeddingBank& operator=(const EmbeddingBank&) = delete;

  float* LongMem(NodeId v) { return data() + L_->LongMemOffset(v); }
  const float* LongMem(NodeId v) const {
    return data() + L_->LongMemOffset(v);
  }
  float* ShortMem(NodeId v) { return data() + L_->ShortMemOffset(v); }
  const float* ShortMem(NodeId v) const {
    return data() + L_->ShortMemOffset(v);
  }
  float* Context(NodeId v, EdgeTypeId r) {
    return data() + L_->ContextOffset(v, r);
  }
  const float* Context(NodeId v, EdgeTypeId r) const {
    return data() + L_->ContextOffset(v, r);
  }
  float* Alpha(NodeTypeId o) { return data() + L_->AlphaOffset(o); }
  const float* Alpha(NodeTypeId o) const {
    return data() + L_->AlphaOffset(o);
  }

  float* data() { return params_.data(); }
  const float* data() const { return params_.data(); }
  size_t size() const { return params_.size(); }

  std::vector<float> Snapshot() const { return params_; }
  void Restore(const std::vector<float>& snapshot) { params_ = snapshot; }

  /// Permutes a buffer in this bank's physical layout into the canonical
  /// logical layout. `src` and `dst` are `size()` floats and must not
  /// alias. Works on any parallel-indexed buffer — parameters or
  /// per-offset optimizer moments — which is how checkpoints stay
  /// byte-identical across shard counts.
  void GatherLogical(const float* src, float* dst) const;

  /// The way back, a range at a time: scatters `n` floats given in the
  /// logical layout, the range starting at logical `offset`, to their
  /// physical places in `dst` (a buffer of size() floats in this bank's
  /// layout). One copy per row, partial rows at either end included; one
  /// copy in all at one shard, where the two layouts coincide. This is how
  /// a checkpoint streams into a bank chunk by chunk.
  void ScatterLogicalRange(const float* src, size_t offset, size_t n,
                           float* dst) const;

  const EmbeddingLayout& layout() const { return *L_; }
  const std::shared_ptr<const EmbeddingLayout>& shared_layout() const {
    return layout_;
  }

 private:
  std::shared_ptr<const EmbeddingLayout> layout_;
  const EmbeddingLayout* L_;
  std::vector<float> params_;
};

}  // namespace supa::store

#endif  // SUPA_STORE_EMBEDDING_BANK_H_
