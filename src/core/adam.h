// Sparse AdamW over the contiguous parameter buffer of store::EmbeddingBank.
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
// the optimizer relies on.

#ifndef SUPA_CORE_ADAM_H_
#define SUPA_CORE_ADAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace supa {

namespace simd {
struct AdamCoeffs;
}  // namespace simd

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

/// AdamW with decoupled weight decay and a global step counter for bias
/// correction (lazy moments: rows not touched in a step keep stale moments,
/// the standard sparse-Adam approximation). Each step folds the bias
/// corrections into its step size and ε in double, then updates every
/// touched row in float through simd::AdamRow (DESIGN.md §8.1).
///
/// Every parameter write goes through one barrier, MarkRow(), which runs
/// *before* the write. Each consumer keeps a generation and a dense
/// per-row stamp array, so the first write to a row in a generation is
/// one compare away and opening a generation costs O(1):
///   * the Φ_best undo log saves the row's params, m and v to a reused
///     arena, so a rollback costs the rows written since the generation
///     opened (DESIGN.md §8.4);
///   * checkpoint tracking appends the row to the list a delta checkpoint
///     copies (DESIGN.md §16.3).
class SparseAdam {
 public:
  /// `num_params` must equal the EmbeddingBank buffer size.
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
  /// minimizes the loss (descends). Increments the global step and passes
  /// every touched row through MarkRow before updating it. `stats`, when
  /// non-null, accumulates the step's norms for the model monitor.
  void Step(const GradBuffer& grads, float* params,
            StepStats* stats = nullptr);

  /// Global step count so far.
  uint64_t step_count() const { return step_; }
  /// Sets the step counter of a whole-state load through m_data()/v_data().
  void set_step_count(uint64_t step) { step_ = step; }

  /// Optimizer-state snapshot/rollback, paired with EmbeddingBank's.
  struct State {
    std::vector<float> m;
    std::vector<float> v;
    uint64_t step = 0;
  };
  State Snapshot() const { return State{m_, v_, step_}; }
  /// A whole-state write: closes the undo generation and marks the whole
  /// state checkpoint-dirty.
  void Restore(const State& state);

  // -- The write barrier ------------------------------------------------

  /// A parameter row: floats [offset, offset + len).
  struct RowSpan {
    size_t offset;
    uint32_t len;
  };

  /// Row numbering behind the stamps: floats [0, tail_begin) form rows of
  /// `row_len` floats, and each float from `tail_begin` on is a row of its
  /// own (the α scalars). Until this is called every float is a row. Call
  /// before the first generation opens.
  void SetRowLayout(uint32_t row_len, size_t tail_begin);

  /// The barrier. Call *before* writing the row at `offset` (`len` floats,
  /// stable per row) of `params`. The first call per row in the open undo
  /// generation saves the row's params, m and v; the first call per row
  /// since ClearCheckpointDirty() appends it to checkpoint_dirty_rows().
  void MarkRow(size_t offset, uint32_t len, const float* params) {
    if (!undo_open_ && !CheckpointMarking()) return;
    const size_t row = RowOf(offset);
    if (undo_open_ && undo_.Mark(row, offset, len)) {
      SaveUndoRow(offset, len, params);
    }
    if (CheckpointMarking()) ckpt_.Mark(row, offset, len);
  }

  // -- Φ_best undo log ---------------------------------------------------

  /// Opens an undo generation at the current state and step, discarding
  /// the open one (its arena capacity is kept). O(1).
  void OpenUndo();
  bool undo_open() const { return undo_open_; }
  /// Rows the open generation saved, in first-write order.
  const std::vector<RowSpan>& undo_rows() const { return undo_.rows; }
  /// Writes the saved rows back into `params`, m and v, marks each of
  /// them checkpoint-dirty, restores the step counter and closes the
  /// generation. O(rows saved). The generation must be open.
  void RollBackUndo(float* params);
  /// Closes the open generation without writing anything.
  void CloseUndo();
  /// Resident bytes of the undo arena plus both stamp arrays.
  size_t undo_bytes() const;

  // -- Checkpoint tracking (durability engine) ---------------------------
  //
  // The checkpoint generation runs from one durable link to the next:
  // ClearCheckpointDirty() opens it at each cut, and so does turning
  // tracking on. Off by default so the hot path pays nothing when
  // durability is not enabled.

  void set_checkpoint_tracking(bool on);

  /// Rows written since the last ClearCheckpointDirty(), in first-write
  /// order. Meaningless when checkpoint_dirty_overflow() is set — take a
  /// full base instead.
  const std::vector<RowSpan>& checkpoint_dirty_rows() const {
    return ckpt_.rows;
  }

  /// True after a whole-state write (a full State restore, a checkpoint
  /// load, recovery) that row tracking cannot bound; the next checkpoint
  /// link must be a full base.
  bool checkpoint_dirty_overflow() const { return ckpt_overflow_; }
  void MarkAllCheckpointDirty() {
    if (!ckpt_tracking_) return;
    ckpt_overflow_ = true;
    ckpt_.rows.clear();
  }
  void ClearCheckpointDirty();

  /// Raw moment access for whole-state gathers and loads.
  float* m_data() { return m_.data(); }
  const float* m_data() const { return m_.data(); }
  float* v_data() { return v_.data(); }
  const float* v_data() const { return v_.data(); }

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

 private:
  /// One row's moment + parameter update with the step's folded
  /// coefficients, through simd::AdamRow. `stats` (nullable) accumulates
  /// observability norms from the row's values before and after, without
  /// touching the update math.
  void UpdateRow(size_t offset, const float* g, size_t len,
                 const simd::AdamCoeffs& c, float* params, StepStats* stats);

  /// One consumer of the barrier: a generation number and a stamp per
  /// row. A row's first Mark in a generation appends it to `rows`.
  struct Generation {
    uint32_t number = 0;
    std::vector<uint32_t> stamps;  // allocated by the first Next
    std::vector<RowSpan> rows;

    void Next(size_t num_rows);  // opens the next generation
    bool Mark(size_t row, size_t offset, uint32_t len) {
      if (stamps[row] == number) return false;
      stamps[row] = number;
      rows.push_back(RowSpan{offset, len});
      return true;
    }
  };

  size_t RowOf(size_t offset) const {
    return offset < tail_begin_ ? offset / row_len_
                                : tail_row_ + (offset - tail_begin_);
  }
  bool CheckpointMarking() const { return ckpt_tracking_ && !ckpt_overflow_; }
  void SaveUndoRow(size_t offset, uint32_t len, const float* params);

  double lr_;
  double weight_decay_;
  double beta1_;
  double beta2_;
  double eps_;
  uint64_t step_ = 0;
  std::vector<float> m_;
  std::vector<float> v_;
  std::vector<float> row_before_;  // a row's params before a monitored step

  // Row numbering (SetRowLayout).
  uint32_t row_len_ = 1;
  size_t tail_begin_;
  size_t tail_row_;
  size_t num_rows_;

  // Φ_best undo log: the arena holds [params | m | v] per row, in
  // undo_.rows order.
  Generation undo_;
  bool undo_open_ = false;
  uint64_t undo_step_ = 0;
  std::vector<float> undo_data_;

  Generation ckpt_;
  bool ckpt_tracking_ = false;
  bool ckpt_overflow_ = false;
};

}  // namespace supa

#endif  // SUPA_CORE_ADAM_H_
