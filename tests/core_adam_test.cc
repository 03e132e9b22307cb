#include "core/adam.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "util/rng.h"

namespace supa {
namespace {

TEST(GradBufferTest, RowIsZeroInitialized) {
  GradBuffer g;
  float* row = g.Row(0, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(row[i], 0.0f);
}

TEST(GradBufferTest, AccumulateSums) {
  GradBuffer g;
  const float v1[2] = {1.0f, 2.0f};
  const float v2[2] = {10.0f, 20.0f};
  g.Accumulate(8, 2, 1.0, v1);
  g.Accumulate(8, 2, 0.5, v2);
  float* row = g.Row(8, 2);
  EXPECT_FLOAT_EQ(row[0], 6.0f);
  EXPECT_FLOAT_EQ(row[1], 12.0f);
  EXPECT_EQ(g.num_rows(), 1u);
}

TEST(GradBufferTest, DistinctOffsetsAreDistinctRows) {
  GradBuffer g;
  const float v[1] = {1.0f};
  g.Accumulate(0, 1, 1.0, v);
  g.Accumulate(1, 1, 2.0, v);
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_FLOAT_EQ(g.Row(0, 1)[0], 1.0f);
  EXPECT_FLOAT_EQ(g.Row(1, 1)[0], 2.0f);
}

TEST(GradBufferTest, ScalarAccumulation) {
  GradBuffer g;
  g.AccumulateScalar(5, 0.25);
  g.AccumulateScalar(5, 0.25);
  EXPECT_FLOAT_EQ(g.Row(5, 1)[0], 0.5f);
}

TEST(GradBufferTest, ClearResetsWithoutInvalidating) {
  GradBuffer g;
  const float v[2] = {1.0f, 1.0f};
  g.Accumulate(0, 2, 1.0, v);
  g.Clear();
  EXPECT_EQ(g.num_rows(), 0u);
  g.Accumulate(0, 2, 3.0, v);
  EXPECT_FLOAT_EQ(g.Row(0, 2)[0], 3.0f);
}

TEST(GradBufferTest, ForEachVisitsAllRows) {
  GradBuffer g;
  const float v[2] = {1.0f, -1.0f};
  g.Accumulate(0, 2, 1.0, v);
  g.Accumulate(10, 2, 2.0, v);
  size_t visited = 0;
  g.ForEach([&](size_t offset, const float* row, size_t len) {
    EXPECT_TRUE(offset == 0 || offset == 10);
    EXPECT_EQ(len, 2u);
    EXPECT_NE(row, nullptr);
    ++visited;
  });
  EXPECT_EQ(visited, 2u);
}

// ---- flat-table internals (RowIndex / insertion order) -------------------

TEST(GradBufferTest, ForEachIteratesInInsertionOrder) {
  // The flat table must iterate rows in the order they were first touched —
  // never hash-bucket order. This is part of the determinism contract:
  // SparseAdam applies rows in this order.
  GradBuffer g;
  const std::vector<size_t> offsets = {96, 0, 1024, 8, 4096, 16, 72};
  const float v[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (const size_t off : offsets) g.Accumulate(off, 4, 1.0, v);
  std::vector<size_t> seen;
  g.ForEach([&](size_t offset, const float*, size_t) {
    seen.push_back(offset);
  });
  EXPECT_EQ(seen, offsets);
}

TEST(GradBufferTest, ManyRowsSurviveRehash) {
  // Enough distinct rows to force several table growths; values and order
  // must be preserved across rehashes.
  GradBuffer g;
  constexpr size_t kRows = 1000;
  for (size_t r = 0; r < kRows; ++r) {
    const float v[2] = {static_cast<float>(r), -static_cast<float>(r)};
    g.Accumulate(r * 2, 2, 1.0, v);
  }
  // Second pass accumulates into the same rows (duplicate-row semantics).
  for (size_t r = 0; r < kRows; ++r) {
    const float v[2] = {1.0f, 1.0f};
    g.Accumulate(r * 2, 2, 1.0, v);
  }
  EXPECT_EQ(g.num_rows(), kRows);
  size_t expect = 0;
  g.ForEach([&](size_t offset, const float* row, size_t len) {
    EXPECT_EQ(offset, expect * 2);
    EXPECT_EQ(len, 2u);
    EXPECT_FLOAT_EQ(row[0], static_cast<float>(expect) + 1.0f);
    EXPECT_FLOAT_EQ(row[1], -static_cast<float>(expect) + 1.0f);
    ++expect;
  });
  EXPECT_EQ(expect, kRows);
}

TEST(GradBufferTest, ClearedBufferReusesRowsInNewOrder) {
  GradBuffer g;
  const float v[1] = {1.0f};
  g.Accumulate(10, 1, 1.0, v);
  g.Accumulate(20, 1, 1.0, v);
  g.Clear();
  // New insertion order after Clear wins.
  g.Accumulate(20, 1, 5.0, v);
  g.Accumulate(10, 1, 7.0, v);
  std::vector<size_t> seen;
  g.ForEach([&](size_t offset, const float* row, size_t) {
    seen.push_back(offset);
    EXPECT_FLOAT_EQ(row[0], offset == 20 ? 5.0f : 7.0f);
  });
  EXPECT_EQ(seen, (std::vector<size_t>{20, 10}));
}

TEST(GradBufferTest, MixedScalarAndVectorRows) {
  // The α gradient is a scalar (len-1) row living alongside embedding rows;
  // both kinds must coexist and accumulate independently.
  GradBuffer g;
  const float v[3] = {1.0f, 2.0f, 3.0f};
  g.Accumulate(0, 3, 1.0, v);
  g.AccumulateScalar(100, 0.5);
  g.Accumulate(0, 3, 1.0, v);
  g.AccumulateScalar(100, 0.25);
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_FLOAT_EQ(g.Row(0, 3)[2], 6.0f);
  EXPECT_FLOAT_EQ(g.Row(100, 1)[0], 0.75f);
}

TEST(RowIndexTest, FindOrInsertIsIdempotent) {
  RowIndex index;
  bool inserted = false;
  const uint32_t id0 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_TRUE(inserted);
  const uint32_t id1 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id0, id1);
  EXPECT_EQ(index.size(), 1u);
  index.Clear();
  EXPECT_TRUE(index.empty());
  const uint32_t id2 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(id2, 0u);
}

std::vector<size_t> Offsets(const std::vector<SparseAdam::RowSpan>& rows) {
  std::vector<size_t> out;
  for (const SparseAdam::RowSpan& r : rows) out.push_back(r.offset);
  return out;
}

TEST(WriteBarrierTest, ReportsEachRowOncePerGeneration) {
  // Three rows of four floats, then two α scalars, each a row of its own.
  constexpr size_t kParams = 14;
  std::vector<float> param(kParams);
  for (size_t i = 0; i < kParams; ++i) param[i] = static_cast<float>(i);
  SparseAdam adam(kParams, 0.1, 0.0);
  adam.SetRowLayout(4, 12);
  adam.set_checkpoint_tracking(true);
  adam.ClearCheckpointDirty();

  const float g4[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  GradBuffer g;
  g.Accumulate(4, 4, 1.0, g4);
  g.AccumulateScalar(13, 1.0);
  g.AccumulateScalar(12, 1.0);
  adam.OpenUndo();
  adam.Step(g, param.data());
  adam.Step(g, param.data());
  adam.MarkRow(8, 4, param.data());
  adam.MarkRow(13, 1, param.data());
  EXPECT_EQ(Offsets(adam.checkpoint_dirty_rows()),
            (std::vector<size_t>{4, 13, 12, 8}));
  EXPECT_EQ(Offsets(adam.undo_rows()), (std::vector<size_t>{4, 13, 12, 8}));

  // A new generation reports each row again, once.
  adam.ClearCheckpointDirty();
  adam.OpenUndo();
  EXPECT_TRUE(adam.checkpoint_dirty_rows().empty());
  EXPECT_TRUE(adam.undo_rows().empty());
  adam.MarkRow(12, 1, param.data());
  adam.Step(g, param.data());
  EXPECT_EQ(Offsets(adam.checkpoint_dirty_rows()),
            (std::vector<size_t>{12, 4, 13}));
  EXPECT_EQ(Offsets(adam.undo_rows()), (std::vector<size_t>{12, 4, 13}));
}

TEST(WriteBarrierTest, RollBackRestoresFirstWriteValuesAndStep) {
  constexpr size_t kParams = 10;
  std::vector<float> param(kParams, 1.0f);
  SparseAdam adam(kParams, 0.1, 0.0);
  adam.SetRowLayout(4, 8);
  GradBuffer g;
  const float g4[4] = {1.0f, -1.0f, 2.0f, -2.0f};
  g.Accumulate(0, 4, 1.0, g4);
  g.AccumulateScalar(9, 0.5);
  adam.Step(g, param.data());
  const std::vector<float> param_at_take = param;
  const SparseAdam::State state_at_take = adam.Snapshot();

  adam.OpenUndo();
  for (int i = 0; i < 3; ++i) adam.Step(g, param.data());
  EXPECT_NE(param, param_at_take);
  adam.set_checkpoint_tracking(true);
  adam.ClearCheckpointDirty();
  adam.RollBackUndo(param.data());

  EXPECT_FALSE(adam.undo_open());
  EXPECT_EQ(param, param_at_take);
  const SparseAdam::State state = adam.Snapshot();
  EXPECT_EQ(state.m, state_at_take.m);
  EXPECT_EQ(state.v, state_at_take.v);
  EXPECT_EQ(state.step, state_at_take.step);
  // The rows written back are checkpoint-dirty, and only those.
  EXPECT_EQ(Offsets(adam.checkpoint_dirty_rows()),
            (std::vector<size_t>{0, 9}));
}

TEST(SparseAdamTest, StepMarksTouchedRowsDirty) {
  std::vector<float> param(8, 1.0f);
  SparseAdam adam(8, 0.1, 0.0);
  adam.set_checkpoint_tracking(true);
  GradBuffer g;
  g.AccumulateScalar(2, 1.0);
  g.AccumulateScalar(5, -1.0);
  adam.Step(g, param.data());
  EXPECT_EQ(adam.checkpoint_dirty_rows().size(), 2u);
  adam.MarkRow(6, 1, param.data());
  EXPECT_EQ(adam.checkpoint_dirty_rows().size(), 3u);
  adam.ClearCheckpointDirty();
  EXPECT_EQ(adam.checkpoint_dirty_rows().size(), 0u);
  adam.MarkAllCheckpointDirty();
  EXPECT_TRUE(adam.checkpoint_dirty_overflow());
  adam.Step(g, param.data());
  EXPECT_EQ(adam.checkpoint_dirty_rows().size(), 0u);
}

// The folded float AdamW step written as one scalar loop, kept here as the
// byte-level reference: SparseAdam must reproduce its floats and its
// monitor sums exactly on every backend.
struct ScalarAdam {
  ScalarAdam(size_t num_params, double lr, double weight_decay)
      : lr(lr), weight_decay(weight_decay), m(num_params), v(num_params) {}

  double lr, weight_decay, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  uint64_t step = 0;
  std::vector<float> m, v;

  void Step(const GradBuffer& grads, float* params,
            SparseAdam::StepStats* stats) {
    ++step;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
    const double sqrt_bc2 =
        std::sqrt(1.0 - std::pow(beta2, static_cast<double>(step)));
    const float b1 = static_cast<float>(beta1);
    const float one_minus_b1 = static_cast<float>(1.0 - beta1);
    const float b2 = static_cast<float>(beta2);
    const float one_minus_b2 = static_cast<float>(1.0 - beta2);
    const float alpha = static_cast<float>(lr * sqrt_bc2 / bc1);
    const float eps_hat = static_cast<float>(eps * sqrt_bc2);
    const float lr_wd = static_cast<float>(lr * weight_decay);
    grads.ForEach([&](size_t offset, const float* g, size_t len) {
      for (size_t i = 0; i < len; ++i) {
        const size_t p = offset + i;
        const float gi = g[i];
        m[p] = b1 * m[p] + one_minus_b1 * gi;
        v[p] = b2 * v[p] + (one_minus_b2 * gi) * gi;
        const float u = m[p] / (std::sqrt(v[p]) + eps_hat);
        const double before = params[p];
        params[p] = params[p] - (alpha * u + lr_wd * params[p]);
        if (stats != nullptr) {
          const double after = params[p];
          const double change = after - before;
          stats->sum_update_sq += change * change;
          stats->sum_param_sq_before += before * before;
          stats->sum_param_sq_after += after * after;
        }
      }
    });
  }
};

// The unfolded AdamW step in double that SparseAdam ran before the float
// kernel: a numeric reference only, for how far the folded step drifts.
struct DoubleAdam {
  DoubleAdam(size_t num_params, double lr, double weight_decay)
      : lr(lr), weight_decay(weight_decay), m(num_params), v(num_params) {}

  double lr, weight_decay, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  uint64_t step = 0;
  std::vector<float> m, v;

  void Step(const GradBuffer& grads, float* params) {
    ++step;
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
    grads.ForEach([&](size_t offset, const float* g, size_t len) {
      for (size_t i = 0; i < len; ++i) {
        const size_t p = offset + i;
        const double gi = g[i];
        m[p] = static_cast<float>(beta1 * m[p] + (1.0 - beta1) * gi);
        v[p] = static_cast<float>(beta2 * v[p] + (1.0 - beta2) * gi * gi);
        const double mhat = m[p] / bc1;
        const double vhat = v[p] / bc2;
        double update = mhat / (std::sqrt(vhat) + eps);
        update += weight_decay * params[p];
        params[p] = static_cast<float>(params[p] - lr * update);
      }
    });
  }
};

TEST(SparseAdamTest, StepMatchesScalarReferenceExactly) {
  // 32 rows of 64 floats, then 16 α scalars (rows of one float).
  constexpr size_t kDim = 64, kRows = 32, kScalars = 16;
  constexpr size_t kParams = kRows * kDim + kScalars;
  constexpr double kLr = 3e-3, kWd = 1e-4;
  Rng rng(23);
  std::vector<float> init(kParams);
  for (float& x : init) x = static_cast<float>(rng.Uniform(-1.0, 1.0));

  ScalarAdam ref(kParams, kLr, kWd);
  std::vector<float> ref_params = init;
  SparseAdam monitored(kParams, kLr, kWd), plain(kParams, kLr, kWd);
  std::vector<float> monitored_params = init, plain_params = init;

  GradBuffer g;
  std::vector<float> grad(kDim);
  for (int step = 0; step < 40; ++step) {
    g.Clear();
    for (int k = 0; k < 12; ++k) {
      for (float& x : grad) x = static_cast<float>(rng.Uniform(-0.5, 0.5));
      g.Accumulate(rng.Index(kRows) * kDim, kDim, rng.Uniform(-2.0, 2.0),
                   grad.data());
      g.AccumulateScalar(kRows * kDim + rng.Index(kScalars),
                         rng.Uniform(-1.0, 1.0));
    }
    SparseAdam::StepStats want, got;
    ref.Step(g, ref_params.data(), &want);
    monitored.Step(g, monitored_params.data(), &got);
    plain.Step(g, plain_params.data());

    const size_t bytes = kParams * sizeof(float);
    ASSERT_EQ(std::memcmp(monitored_params.data(), ref_params.data(), bytes),
              0)
        << "step " << step;
    ASSERT_EQ(std::memcmp(plain_params.data(), ref_params.data(), bytes), 0)
        << "step " << step;
    for (const SparseAdam* adam : {&monitored, &plain}) {
      ASSERT_EQ(std::memcmp(adam->m_data(), ref.m.data(), bytes), 0);
      ASSERT_EQ(std::memcmp(adam->v_data(), ref.v.data(), bytes), 0);
    }
    EXPECT_EQ(got.sum_update_sq, want.sum_update_sq);
    EXPECT_EQ(got.sum_param_sq_before, want.sum_param_sq_before);
    EXPECT_EQ(got.sum_param_sq_after, want.sum_param_sq_after);
  }
}

TEST(SparseAdamTest, FoldedStepTracksDoubleAdam) {
  // 600 sparse steps over 64 rows of 64 floats and 8 α scalars, each row
  // touched at random, so the rows see uneven step gaps. The folded float
  // step rounds differently from the double one but must follow it.
  constexpr size_t kDim = 64, kRows = 64, kScalars = 8;
  constexpr size_t kParams = kRows * kDim + kScalars;
  constexpr double kLr = 3e-3, kWd = 1e-4;
  Rng rng(29);
  std::vector<float> folded_params(kParams);
  for (float& x : folded_params) x = static_cast<float>(rng.Gaussian(0.0, 0.1));
  std::vector<float> double_params = folded_params;
  SparseAdam folded(kParams, kLr, kWd);
  DoubleAdam reference(kParams, kLr, kWd);

  GradBuffer g;
  std::vector<float> grad(kDim);
  for (int step = 0; step < 600; ++step) {
    g.Clear();
    for (int k = 0; k < 6; ++k) {
      for (float& x : grad) x = static_cast<float>(rng.Uniform(-0.5, 0.5));
      g.Accumulate(rng.Index(kRows) * kDim, kDim, rng.Uniform(-2.0, 2.0),
                   grad.data());
      g.AccumulateScalar(kRows * kDim + rng.Index(kScalars),
                         rng.Uniform(-1.0, 1.0));
    }
    folded.Step(g, folded_params.data());
    reference.Step(g, double_params.data());
  }
  // Relative to each parameter, floored at 1% of the initial σ so that a
  // parameter passing through zero does not divide by almost nothing.
  double worst = 0.0;
  for (size_t i = 0; i < kParams; ++i) {
    const double scale = std::max(std::abs(double_params[i]), 1e-3f);
    worst = std::max(
        worst, std::abs(folded_params[i] - double_params[i]) / scale);
  }
  std::cout << "largest relative difference after 600 steps: " << worst
            << "\n";
  EXPECT_LT(worst, 1e-4);
}

TEST(SparseAdamTest, DescendsOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 starting at 0.
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, /*lr=*/0.1, /*weight_decay=*/0.0);
  GradBuffer g;
  for (int step = 0; step < 500; ++step) {
    g.Clear();
    const double grad = 2.0 * (param[0] - 3.0);
    g.AccumulateScalar(0, grad);
    adam.Step(g, param.data());
  }
  EXPECT_NEAR(param[0], 3.0, 0.05);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(SparseAdamTest, OnlyTouchedRowsChange) {
  std::vector<float> param = {1.0f, 1.0f, 1.0f, 1.0f};
  SparseAdam adam(4, 0.1, 0.0);
  GradBuffer g;
  g.AccumulateScalar(1, 1.0);
  adam.Step(g, param.data());
  EXPECT_EQ(param[0], 1.0f);
  EXPECT_LT(param[1], 1.0f);  // positive gradient => descend
  EXPECT_EQ(param[2], 1.0f);
  EXPECT_EQ(param[3], 1.0f);
}

TEST(SparseAdamTest, WeightDecayShrinksUntouchedDirection) {
  // With pure decay (zero gradient on a touched row), the parameter decays
  // towards zero.
  std::vector<float> param = {10.0f};
  SparseAdam adam(1, 0.1, /*weight_decay=*/0.5);
  GradBuffer g;
  for (int i = 0; i < 20; ++i) {
    g.Clear();
    g.AccumulateScalar(0, 0.0);
    adam.Step(g, param.data());
  }
  EXPECT_LT(param[0], 10.0f);
  EXPECT_GT(param[0], 0.0f);
}

TEST(SparseAdamTest, FirstStepMagnitudeIsLr) {
  // Adam's bias-corrected first step is ≈ lr * sign(grad).
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, 0.01, 0.0);
  GradBuffer g;
  g.AccumulateScalar(0, 123.0);
  adam.Step(g, param.data());
  EXPECT_NEAR(param[0], -0.01, 1e-5);
}

TEST(SparseAdamTest, SnapshotRestoreRoundTrip) {
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, 0.1, 0.0);
  GradBuffer g;
  g.AccumulateScalar(0, 1.0);
  adam.Step(g, param.data());
  const SparseAdam::State snap = adam.Snapshot();
  const float param_snap = param[0];
  // Diverge...
  for (int i = 0; i < 5; ++i) adam.Step(g, param.data());
  EXPECT_NE(adam.step_count(), 1u);
  // ...and roll back.
  adam.Restore(snap);
  param[0] = param_snap;
  EXPECT_EQ(adam.step_count(), 1u);
  // Deterministic continuation: two restored copies evolve identically.
  std::vector<float> p2 = {param_snap};
  SparseAdam adam2(1, 0.1, 0.0);
  adam2.Restore(snap);
  adam.Step(g, param.data());
  adam2.Step(g, p2.data());
  EXPECT_EQ(param[0], p2[0]);
}

}  // namespace
}  // namespace supa
