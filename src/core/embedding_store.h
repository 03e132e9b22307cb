// Parameter storage for SUPA: per-node long-term memory h^L, short-term
// memory h^S, per-(node, relation) context embeddings c^r, and per-node-type
// drift scalars α_o — all in one contiguous float buffer so the optimizer
// state and model snapshots are trivially aligned.
//
// Since the storage-engine refactor this class is a facade over a sharded
// store::EmbeddingBank (DESIGN.md §11). The buffer stays contiguous but is
// laid out shard-major; offsets remain opaque handles (the optimizer and
// gradient buffer never interpret them; the write barrier only numbers
// rows by offset ÷ dim), and with one shard the physical layout is
// byte-identical to the historical monolith:
//
///   [0, N*d)            long-term memories
///   [N*d, 2N*d)         short-term memories
///   [2N*d, 2N*d + N*R*d) context embeddings (node-major, relation-minor)
///   [.., +T)            α scalars, one per node type
//
// Layout-*invariant* serialization (checkpoints) goes through
// GatherLogical / ScatterLogical, which permute to exactly that canonical
// order at any shard count.

#ifndef SUPA_CORE_EMBEDDING_STORE_H_
#define SUPA_CORE_EMBEDDING_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "store/embedding_bank.h"
#include "util/rng.h"

namespace supa {

class EmbeddingStore {
 public:
  /// Allocates and randomly initializes all parameters with
  /// N(0, init_scale²); α starts at 0 (σ(0) = ½ drift coefficient). The
  /// shard count comes from SUPA_SHARDS (default 1); the RNG stream is
  /// consumed in logical row order, so the initial model is bit-identical
  /// at every shard count.
  EmbeddingStore(size_t num_nodes, size_t num_relations,
                 size_t num_node_types, int dim, double init_scale, Rng& rng);

  /// Wraps an existing bank (shared with the owner, e.g. the model's
  /// GraphStore, so graph and embeddings colocate on the same shards).
  explicit EmbeddingStore(std::shared_ptr<store::EmbeddingBank> bank);

  // Deep-copy value semantics (the bank is copied, the immutable layout
  // shared).
  EmbeddingStore(const EmbeddingStore& other);
  EmbeddingStore& operator=(const EmbeddingStore& other);
  EmbeddingStore(EmbeddingStore&&) noexcept = default;
  EmbeddingStore& operator=(EmbeddingStore&&) noexcept = default;

  /// h^L_v — mutable row of `dim` floats.
  float* LongMem(NodeId v) { return bank_->LongMem(v); }
  const float* LongMem(NodeId v) const { return bank_->LongMem(v); }

  /// h^S_v.
  float* ShortMem(NodeId v) { return bank_->ShortMem(v); }
  const float* ShortMem(NodeId v) const { return bank_->ShortMem(v); }

  /// c^r_v.
  float* Context(NodeId v, EdgeTypeId r) { return bank_->Context(v, r); }
  const float* Context(NodeId v, EdgeTypeId r) const {
    return bank_->Context(v, r);
  }

  /// α_o (stored as a float parameter).
  float* Alpha(NodeTypeId o) { return bank_->Alpha(o); }
  const float* Alpha(NodeTypeId o) const { return bank_->Alpha(o); }

  /// Parameter offsets (for the sparse optimizer). Opaque: stable for the
  /// store's lifetime, unique per row, but layout-dependent — never
  /// persist them raw (checkpoints use the logical permutation below).
  size_t LongMemOffset(NodeId v) const {
    return bank_->layout().LongMemOffset(v);
  }
  size_t ShortMemOffset(NodeId v) const {
    return bank_->layout().ShortMemOffset(v);
  }
  size_t ContextOffset(NodeId v, EdgeTypeId r) const {
    return bank_->layout().ContextOffset(v, r);
  }
  size_t AlphaOffset(NodeTypeId o) const {
    return bank_->layout().AlphaOffset(o);
  }

  /// Whole-parameter access.
  float* data() { return bank_->data(); }
  const float* data() const { return bank_->data(); }
  size_t size() const { return bank_->size(); }

  int dim() const { return bank_->layout().dim(); }
  size_t num_nodes() const { return bank_->layout().num_nodes(); }
  size_t num_relations() const { return bank_->layout().num_relations(); }
  size_t num_node_types() const { return bank_->layout().num_node_types(); }
  size_t num_shards() const { return bank_->layout().num_shards(); }

  /// Snapshot/rollback of all parameters (Algorithm 1's Φ_best).
  std::vector<float> Snapshot() const { return bank_->Snapshot(); }
  void Restore(const std::vector<float>& snapshot) {
    bank_->Restore(snapshot);
  }

  /// Physical ↔ canonical-logical layout permutation for any buffer
  /// indexed by this store's offsets (parameters, optimizer moments).
  /// `src`/`dst` are size() floats and must not alias.
  void GatherLogical(const float* src, float* dst) const {
    bank_->GatherLogical(src, dst);
  }
  void ScatterLogical(const float* src, float* dst) const {
    bank_->ScatterLogical(src, dst);
  }

  /// Logical offset of the float at physical `offset` — the per-row form
  /// of GatherLogical, for serializing sparse dirty rows in shard-count-
  /// invariant coordinates (delta checkpoints).
  size_t PhysicalToLogical(size_t offset) const {
    return bank_->layout().PhysicalToLogical(offset);
  }

  /// The bank behind this facade.
  store::EmbeddingBank& bank() { return *bank_; }
  const store::EmbeddingBank& bank() const { return *bank_; }

 private:
  std::shared_ptr<store::EmbeddingBank> bank_;
};

}  // namespace supa

#endif  // SUPA_CORE_EMBEDDING_STORE_H_
