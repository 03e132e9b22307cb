#include "core/adam.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/simd.h"

namespace supa {

namespace {
/// Initial slot-table size; must be a power of two.
constexpr size_t kInitialSlots = 64;
}  // namespace

uint32_t RowIndex::FindOrInsert(size_t offset, uint32_t len, bool* inserted) {
  if (table_.empty()) Rehash(kInitialSlots);
  // Grow at 50% load so probe chains stay short.
  if ((entries_.size() + 1) * 2 > table_.size()) Rehash(table_.size() * 2);

  size_t slot = Hash(offset) & mask_;
  while (true) {
    const uint32_t id_plus1 = table_[slot];
    if (id_plus1 == 0) {
      const uint32_t id = static_cast<uint32_t>(entries_.size());
      table_[slot] = id + 1;
      entries_.push_back(Entry{offset, len, static_cast<uint32_t>(slot)});
      *inserted = true;
      return id;
    }
    const Entry& e = entries_[id_plus1 - 1];
    if (e.offset == offset) {
      assert(e.len == len);
      *inserted = false;
      return id_plus1 - 1;
    }
    slot = (slot + 1) & mask_;
  }
}

void RowIndex::Rehash(size_t new_slots) {
  table_.assign(new_slots, 0);
  mask_ = new_slots - 1;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    size_t slot = Hash(entries_[id].offset) & mask_;
    while (table_[slot] != 0) slot = (slot + 1) & mask_;
    table_[slot] = id + 1;
    entries_[id].slot = static_cast<uint32_t>(slot);
  }
}

void RowIndex::Clear() {
  // Reset only the slots that are in use — O(entries), not O(table).
  for (const Entry& e : entries_) table_[e.slot] = 0;
  entries_.clear();
}

float* GradBuffer::Row(size_t offset, size_t len) {
  bool inserted = false;
  const uint32_t id =
      index_.FindOrInsert(offset, static_cast<uint32_t>(len), &inserted);
  if (inserted) {
    pos_.push_back(data_.size());
    data_.resize(data_.size() + len, 0.0f);
  }
  return data_.data() + pos_[id];
}

void GradBuffer::Accumulate(size_t offset, size_t len, double alpha,
                            const float* vec) {
  simd::Axpy(alpha, vec, Row(offset, len), len);
}

void GradBuffer::AccumulateScalar(size_t offset, double g) {
  float* row = Row(offset, 1);
  row[0] += static_cast<float>(g);
}

void GradBuffer::Clear() {
  index_.Clear();
  pos_.clear();
  data_.clear();
}

SparseAdam::SparseAdam(size_t num_params, double lr, double weight_decay,
                       double beta1, double beta2, double eps)
    : lr_(lr),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(num_params, 0.0f),
      v_(num_params, 0.0f),
      tail_begin_(num_params),
      tail_row_(num_params),
      num_rows_(num_params) {}

void SparseAdam::SetRowLayout(uint32_t row_len, size_t tail_begin) {
  assert(undo_.stamps.empty() && ckpt_.stamps.empty());
  assert(row_len > 0 && tail_begin % row_len == 0 && tail_begin <= m_.size());
  row_len_ = row_len;
  tail_begin_ = tail_begin;
  tail_row_ = tail_begin / row_len;
  num_rows_ = tail_row_ + (m_.size() - tail_begin);
}

void SparseAdam::UpdateRow(size_t offset, const float* g, size_t len,
                           const simd::AdamCoeffs& c, float* params,
                           StepStats* stats) {
  float* p = params + offset;
  if (stats != nullptr) row_before_.assign(p, p + len);
  simd::AdamRow(c, g, p, m_.data() + offset, v_.data() + offset, len);
  if (stats == nullptr) return;
  // Reads only, from each float before and after the write: the update
  // above is byte-for-byte the unmonitored computation.
  for (size_t i = 0; i < len; ++i) {
    const double before = row_before_[i];
    const double after = p[i];
    const double change = after - before;
    stats->sum_update_sq += change * change;
    stats->sum_param_sq_before += before * before;
    stats->sum_param_sq_after += after * after;
  }
}

void SparseAdam::Step(const GradBuffer& grads, float* params,
                      StepStats* stats) {
  ++step_;
  // The bias corrections fold into the step size and ε once per step, in
  // double; the row kernel then runs in float.
  const simd::AdamCoeffs c =
      simd::FoldAdam(beta1_, beta2_, eps_, lr_, weight_decay_, step_);
  grads.ForEach([&](size_t offset, const float* g, size_t len) {
    MarkRow(offset, static_cast<uint32_t>(len), params);
    UpdateRow(offset, g, len, c, params, stats);
  });
}

void SparseAdam::Restore(const State& state) {
  m_ = state.m;
  v_ = state.v;
  step_ = state.step;
  CloseUndo();
  MarkAllCheckpointDirty();
}

void SparseAdam::Generation::Next(size_t num_rows) {
  stamps.resize(num_rows, 0);
  rows.clear();
  // Stamps start at 0, so generation numbers start at 1. On wrap-around
  // the stamps are zeroed: no stamp 2^32 generations old can match.
  if (++number == 0) {
    std::fill(stamps.begin(), stamps.end(), 0);
    number = 1;
  }
}

void SparseAdam::SaveUndoRow(size_t offset, uint32_t len,
                             const float* params) {
  auto save = [&](const float* src) {
    undo_data_.insert(undo_data_.end(), src + offset, src + offset + len);
  };
  save(params);
  save(m_.data());
  save(v_.data());
}

void SparseAdam::OpenUndo() {
  CloseUndo();
  undo_.Next(num_rows_);
  undo_step_ = step_;
  undo_open_ = true;
}

void SparseAdam::RollBackUndo(float* params) {
  assert(undo_open_);
  const float* src = undo_data_.data();
  for (const RowSpan& r : undo_.rows) {
    for (float* dst : {params, m_.data(), v_.data()}) {
      std::memcpy(dst + r.offset, src, r.len * sizeof(float));
      src += r.len;
    }
    if (CheckpointMarking()) ckpt_.Mark(RowOf(r.offset), r.offset, r.len);
  }
  step_ = undo_step_;
  CloseUndo();
}

void SparseAdam::CloseUndo() {
  undo_open_ = false;
  undo_.rows.clear();
  undo_data_.clear();
}

size_t SparseAdam::undo_bytes() const {
  return undo_data_.capacity() * sizeof(float) +
         undo_.rows.capacity() * sizeof(RowSpan) +
         (undo_.stamps.capacity() + ckpt_.stamps.capacity()) *
             sizeof(uint32_t);
}

void SparseAdam::set_checkpoint_tracking(bool on) {
  ckpt_tracking_ = on;
  if (on) ckpt_.Next(num_rows_);
}

void SparseAdam::ClearCheckpointDirty() {
  ckpt_.Next(num_rows_);
  ckpt_overflow_ = false;
}

}  // namespace supa
