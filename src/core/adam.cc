#include "core/adam.h"

#include <cassert>
#include <cmath>
#include <cstring>

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
  float* row = Row(offset, len);
  for (size_t i = 0; i < len; ++i) {
    row[i] += static_cast<float>(alpha * vec[i]);
  }
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
      v_(num_params, 0.0f) {}

void SparseAdam::UpdateRow(size_t offset, const float* g, size_t len,
                           double bc1, double bc2, float* params,
                           StepStats* stats) {
  for (size_t i = 0; i < len; ++i) {
    const size_t p = offset + i;
    const double gi = g[i];
    m_[p] = static_cast<float>(beta1_ * m_[p] + (1.0 - beta1_) * gi);
    v_[p] = static_cast<float>(beta2_ * v_[p] + (1.0 - beta2_) * gi * gi);
    const double mhat = m_[p] / bc1;
    const double vhat = v_[p] / bc2;
    double update = mhat / (std::sqrt(vhat) + eps_);
    // Decoupled weight decay (AdamW).
    update += weight_decay_ * params[p];
    const double before = params[p];
    params[p] = static_cast<float>(params[p] - lr_ * update);
    if (stats != nullptr) {
      // Reads only — the update above is byte-for-byte the unmonitored
      // computation.
      const double after = params[p];
      const double change = after - before;
      stats->sum_update_sq += change * change;
      stats->sum_param_sq_before += before * before;
      stats->sum_param_sq_after += after * after;
    }
  }
}

void SparseAdam::Step(const GradBuffer& grads, float* params,
                      StepStats* stats) {
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  grads.ForEach([&](size_t offset, const float* g, size_t len) {
    MarkRow(offset, static_cast<uint32_t>(len));
    UpdateRow(offset, g, len, bc1, bc2, params, stats);
  });
}

void SparseAdam::Restore(const State& state) {
  m_ = state.m;
  v_ = state.v;
  step_ = state.step;
  // A whole-buffer rewrite: row tracking can no longer bound what changed
  // since the last checkpoint link, so force the next link to a full base.
  MarkAllCheckpointDirty();
}

}  // namespace supa
