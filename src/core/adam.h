// Sparse AdamW over the contiguous parameter buffer of EmbeddingStore.
//
// Each training edge touches only a handful of parameter rows (the two
// interactive nodes, the influenced nodes' contexts, the negatives, two α
// scalars), so gradients are accumulated in a reusable sparse GradBuffer
// and applied row-wise with lazily-updated first/second moments.
//
// The row index is a purpose-built open-addressing flat table rather than
// std::unordered_map: offsets hash into a power-of-two slot array of dense
// row ids, rows live in insertion order in a flat vector, and clearing
// resets only the touched slots — O(dirty) per training step with zero
// steady-state allocation. Iteration (ForEach) walks the insertion-ordered
// row list, never bucket order, so the visit order is deterministic and
// bit-identical across platforms; this is part of the determinism contract
// the optimizer and delta snapshots rely on.

#ifndef SUPA_CORE_ADAM_H_
#define SUPA_CORE_ADAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace supa {

/// Insertion-ordered flat hash index mapping a parameter offset to a dense
/// row id. Open addressing with linear probing over a power-of-two table;
/// clearing only touches the slots that were actually used.
class RowIndex {
 public:
  struct Entry {
    size_t offset;
    uint32_t len;
    uint32_t slot;  // table slot the entry occupies, for O(dirty) Clear
  };

  /// Returns the dense id for `offset`, inserting a new entry (with `len`)
  /// when absent; `*inserted` reports which. `len` must be stable per
  /// offset.
  uint32_t FindOrInsert(size_t offset, uint32_t len, bool* inserted);

  /// Entries in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Removes all entries without releasing memory; O(size()).
  void Clear();

 private:
  void Rehash(size_t new_slots);

  static size_t Hash(size_t offset) {
    uint64_t h = static_cast<uint64_t>(offset) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  std::vector<uint32_t> table_;  // dense id + 1; 0 = empty
  std::vector<Entry> entries_;
  size_t mask_ = 0;  // table_.size() - 1, 0 when unallocated
};

/// Accumulates gradient rows keyed by parameter offset. Duplicate
/// accumulations into the same row sum, so a node that appears both as an
/// influenced node and a negative sample gets one combined update.
class GradBuffer {
 public:
  /// Returns the accumulation row for [offset, offset + len), zeroed on
  /// first use within the current step. `len` must be stable per offset.
  /// The pointer is invalidated by the next Row/Accumulate call.
  float* Row(size_t offset, size_t len);

  /// Adds `alpha * vec` into the row at `offset`.
  void Accumulate(size_t offset, size_t len, double alpha, const float* vec);

  /// Adds a scalar gradient (len-1 row).
  void AccumulateScalar(size_t offset, double g);

  /// Visits every touched row in insertion order (deterministic — never
  /// hash-bucket order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const auto& entries = index_.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      fn(entries[i].offset, data_.data() + pos_[i], entries[i].len);
    }
  }

  /// Number of touched rows.
  size_t num_rows() const { return index_.size(); }

  /// Clears touched rows without releasing memory; O(num_rows()).
  void Clear();

 private:
  RowIndex index_;
  std::vector<size_t> pos_;  // row id -> start in data_
  std::vector<float> data_;
};

/// The set of parameter rows touched since the last reset — the "dirty"
/// rows a delta snapshot must copy. Same flat layout as GradBuffer, minus
/// the payload.
class DirtyRowSet {
 public:
  /// Marks [offset, offset + len) dirty (idempotent).
  void Mark(size_t offset, uint32_t len) {
    bool inserted = false;
    index_.FindOrInsert(offset, len, &inserted);
    if (inserted) num_floats_ += len;
  }

  /// Visits every dirty row in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const RowIndex::Entry& e : index_.entries()) fn(e.offset, e.len);
  }

  size_t num_rows() const { return index_.size(); }
  /// Total floats covered by the dirty rows.
  size_t num_floats() const { return num_floats_; }

  void Clear() {
    index_.Clear();
    num_floats_ = 0;
  }

 private:
  RowIndex index_;
  size_t num_floats_ = 0;
};

/// AdamW with decoupled weight decay and a global step counter for bias
/// correction (lazy moments: rows not touched in a step keep stale moments,
/// the standard sparse-Adam approximation).
class SparseAdam {
 public:
  /// `num_params` must equal the EmbeddingStore buffer size.
  SparseAdam(size_t num_params, double lr, double weight_decay,
             double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Optional per-step observability accumulator: squared L2 sums of the
  /// applied parameter change and of the touched rows before/after the
  /// step. Filling it only *reads* values the update already computes —
  /// the parameter math is identical whether or not stats are collected,
  /// so training stays bit-identical with monitoring on or off.
  struct StepStats {
    double sum_update_sq = 0.0;
    double sum_param_sq_before = 0.0;
    double sum_param_sq_after = 0.0;
  };

  /// Applies one optimization step with the accumulated gradients;
  /// minimizes the loss (descends). Increments the global step and marks
  /// every touched row dirty. `stats`, when non-null, accumulates the
  /// step's norms for the model monitor.
  void Step(const GradBuffer& grads, float* params,
            StepStats* stats = nullptr);

  /// Global step count so far.
  uint64_t step_count() const { return step_; }
  /// Rewinds the step counter (delta-snapshot restore).
  void set_step_count(uint64_t step) { step_ = step; }

  /// Optimizer-state snapshot/rollback, paired with EmbeddingStore's.
  struct State {
    std::vector<float> m;
    std::vector<float> v;
    uint64_t step = 0;
  };
  State Snapshot() const { return State{m_, v_, step_}; }
  void Restore(const State& state);

  /// Rows whose parameters/moments may have changed since the last
  /// ClearDirty(). Maintained by Step(); callers that mutate parameters
  /// outside the optimizer (e.g. the updater's short-term forgetting) must
  /// MarkDirty() the row themselves.
  const DirtyRowSet& dirty_rows() const { return dirty_; }
  void MarkDirty(size_t offset, uint32_t len) { MarkRow(offset, len); }
  void ClearDirty() { dirty_.Clear(); }

  /// -- Checkpoint dirty tracking (durability engine) ------------------
  ///
  /// A second dirty set with an independent lifecycle: `dirty_` is owned
  /// by the delta-snapshot rollback machinery and is cleared/re-based on
  /// every Φ_best restore, while `ckpt_dirty_` accumulates every row
  /// touched since the last durable checkpoint link and is cleared only
  /// by ClearCheckpointDirty() at link-cut time. Off by default so the
  /// hot path pays nothing when durability is not enabled.
  void set_checkpoint_tracking(bool on) { ckpt_tracking_ = on; }
  bool checkpoint_tracking() const { return ckpt_tracking_; }

  /// Rows touched since the last ClearCheckpointDirty(). Meaningless when
  /// checkpoint_dirty_overflow() is set — take a full base instead.
  const DirtyRowSet& checkpoint_dirty_rows() const { return ckpt_dirty_; }

  /// True after a whole-buffer mutation (full State restore, external
  /// bulk load) that row tracking cannot bound; the next checkpoint link
  /// must be a full base.
  bool checkpoint_dirty_overflow() const { return ckpt_overflow_; }
  void MarkAllCheckpointDirty() {
    if (!ckpt_tracking_) return;
    ckpt_overflow_ = true;
    ckpt_dirty_.Clear();
  }
  void ClearCheckpointDirty() {
    ckpt_dirty_.Clear();
    ckpt_overflow_ = false;
  }

  /// Raw moment access for row-wise delta snapshot/restore.
  float* m_data() { return m_.data(); }
  const float* m_data() const { return m_.data(); }
  float* v_data() { return v_.data(); }
  const float* v_data() const { return v_.data(); }

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

 private:
  /// One row's moment + parameter update at bias corrections (bc1, bc2).
  /// `stats` (nullable) accumulates observability norms without touching
  /// the update math.
  void UpdateRow(size_t offset, const float* g, size_t len, double bc1,
                 double bc2, float* params, StepStats* stats);

  /// The single marking point behind Step/MarkDirty: keeps both dirty
  /// sets in lock-step so checkpoint tracking can never miss a row the
  /// rollback machinery saw.
  void MarkRow(size_t offset, uint32_t len) {
    dirty_.Mark(offset, len);
    if (ckpt_tracking_ && !ckpt_overflow_) ckpt_dirty_.Mark(offset, len);
  }

  double lr_;
  double weight_decay_;
  double beta1_;
  double beta2_;
  double eps_;
  uint64_t step_ = 0;
  std::vector<float> m_;
  std::vector<float> v_;
  DirtyRowSet dirty_;
  DirtyRowSet ckpt_dirty_;
  bool ckpt_tracking_ = false;
  bool ckpt_overflow_ = false;
};

}  // namespace supa

#endif  // SUPA_CORE_ADAM_H_
