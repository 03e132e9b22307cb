#include "core/model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "util/math_utils.h"

namespace supa {
namespace {

Dataset SmallData() { return MakeTaobao(0.2, 31).value(); }

SupaConfig SmallConfig() {
  SupaConfig c;
  c.dim = 16;
  c.num_walks = 3;
  c.walk_len = 3;
  c.num_neg = 3;
  c.seed = 5;
  return c;
}

// Warms the model's graph with the first `n` stream edges.
void Warm(SupaModel& model, const Dataset& data, size_t n) {
  for (size_t i = 0; i < n && i < data.edges.size(); ++i) {
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
}

TEST(SupaModelTest, TrainEdgeProducesFiniteLosses) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 2000);
  const auto& e = data.edges[2000];
  auto stats = model.TrainEdge(e);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(std::isfinite(stats.value().total()));
  EXPECT_GT(stats.value().loss_inter, 0.0);
  EXPECT_GT(stats.value().loss_neg, 0.0);
  EXPECT_GT(stats.value().prop_steps, 0u);
  EXPECT_GT(stats.value().loss_prop, 0.0);
}

TEST(SupaModelTest, RepeatedTrainingReducesInteractionLoss) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 500);
  const auto& e = data.edges[500];
  double first = 0.0;
  double last = 0.0;
  for (int i = 0; i < 30; ++i) {
    auto stats = model.TrainEdge(e);
    ASSERT_TRUE(stats.ok());
    if (i == 0) first = stats.value().loss_inter;
    last = stats.value().loss_inter;
  }
  EXPECT_LT(last, first);
}

TEST(SupaModelTest, TrainingRaisesPairScore) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 500);
  const auto& e = data.edges[500];
  const double before = model.Score(e.src, e.dst, e.type);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(model.TrainEdge(e).ok());
  EXPECT_GT(model.Score(e.src, e.dst, e.type), before);
}

TEST(SupaModelTest, LossSwitchesDisableComponents) {
  Dataset data = SmallData();

  SupaConfig only_inter = SmallConfig();
  only_inter.use_prop_loss = false;
  only_inter.use_neg_loss = false;
  SupaModel m1(data, only_inter);
  Warm(m1, data, 2000);
  auto s1 = m1.TrainEdge(data.edges[2000]);
  ASSERT_TRUE(s1.ok());
  EXPECT_GT(s1.value().loss_inter, 0.0);
  EXPECT_EQ(s1.value().loss_prop, 0.0);
  EXPECT_EQ(s1.value().loss_neg, 0.0);
  EXPECT_EQ(s1.value().prop_steps, 0u);

  SupaConfig only_prop = SmallConfig();
  only_prop.use_inter_loss = false;
  only_prop.use_neg_loss = false;
  SupaModel m2(data, only_prop);
  Warm(m2, data, 2000);
  auto s2 = m2.TrainEdge(data.edges[2000]);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value().loss_inter, 0.0);
  EXPECT_GT(s2.value().loss_prop, 0.0);
  EXPECT_EQ(s2.value().loss_neg, 0.0);

  SupaConfig only_neg = SmallConfig();
  only_neg.use_inter_loss = false;
  only_neg.use_prop_loss = false;
  SupaModel m3(data, only_neg);
  Warm(m3, data, 2000);
  auto s3 = m3.TrainEdge(data.edges[2000]);
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s3.value().loss_inter, 0.0);
  EXPECT_EQ(s3.value().loss_prop, 0.0);
  EXPECT_GT(s3.value().loss_neg, 0.0);
}

TEST(SupaModelTest, ShortTermMemoryDecaysWithTimeGap) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  SupaModel model(data, config);
  Warm(model, data, 500);
  const auto& e = data.edges[500];

  // Give the source a long inactivity gap, then train an edge far in the
  // future: the persistent forgetting shrinks the short-term memory.
  const double gap = 1000.0;
  TemporalEdge future = e;
  future.time = model.graph().latest_time() + gap;
  const double norm_before =
      Norm2(model.embeddings().ShortMem(e.src),
            static_cast<size_t>(config.dim));
  ASSERT_TRUE(model.TrainEdge(future).ok());
  // γ = g(σ(0)·1000) = 1/log(e + 500) ≈ 0.16: the decay dominates the
  // single Adam update.
  const double norm_after =
      Norm2(model.embeddings().ShortMem(e.src),
            static_cast<size_t>(config.dim));
  EXPECT_LT(norm_after, 0.6 * norm_before);
}

TEST(SupaModelTest, NoDecayWhenUpdateDecayDisabled) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  config.use_update_decay = false;
  config.use_prop_decay = false;
  config.num_walks = 0;  // isolate the updater
  config.num_neg = 0;
  SupaModel model(data, config);
  Warm(model, data, 500);
  const auto& e = data.edges[500];
  TemporalEdge future = e;
  future.time = model.graph().latest_time() + 1e6;
  const double norm_before =
      Norm2(model.embeddings().ShortMem(e.src),
            static_cast<size_t>(config.dim));
  ASSERT_TRUE(model.TrainEdge(future).ok());
  const double norm_after =
      Norm2(model.embeddings().ShortMem(e.src),
            static_cast<size_t>(config.dim));
  // Only the (small) gradient step moved it; no multiplicative collapse.
  EXPECT_GT(norm_after, 0.5 * norm_before);
}

TEST(SupaModelTest, ScoreMatchesFinalEmbeddingDot) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  SupaModel model(data, config);
  Warm(model, data, 300);
  const size_t d = static_cast<size_t>(config.dim);
  std::vector<float> hu(d);
  std::vector<float> hv(d);
  for (EdgeTypeId r = 0; r < data.schema.num_edge_types(); ++r) {
    model.FinalEmbedding(1, r, hu.data());
    model.FinalEmbedding(300, r, hv.data());
    EXPECT_NEAR(model.Score(1, 300, r), Dot(hu.data(), hv.data(), d), 1e-4);
  }
}

TEST(SupaModelTest, RelationSpecificScoresDiffer) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 300);
  // Different relations use different context embeddings => different
  // scores.
  EXPECT_NE(model.Score(1, 300, 0), model.Score(1, 300, 1));
}

TEST(SupaModelTest, SharedContextCollapsesRelations) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  config.shared_context = true;
  SupaModel model(data, config);
  Warm(model, data, 300);
  EXPECT_EQ(model.Score(1, 300, 0), model.Score(1, 300, 1));
  EXPECT_EQ(model.Score(1, 300, 0), model.Score(1, 300, 3));
}

TEST(SupaModelTest, SnapshotRestoreRoundTrip) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 500);
  const auto snap = model.TakeSnapshot();
  const double score = model.Score(1, 300, 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[500 + i]).ok());
  }
  EXPECT_NE(model.Score(1, 300, 0), score);
  model.RestoreSnapshot(snap);
  EXPECT_EQ(model.Score(1, 300, 0), score);
}

TEST(SupaModelTest, TrainEdgeRejectsBadEdges) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  TemporalEdge self{1, 1, 0, 1.0};
  EXPECT_EQ(model.TrainEdge(self).status().code(),
            StatusCode::kInvalidArgument);
  TemporalEdge oob{1, static_cast<NodeId>(data.num_nodes() + 5), 0, 1.0};
  EXPECT_EQ(model.TrainEdge(oob).status().code(), StatusCode::kOutOfRange);
}

TEST(SupaModelTest, ObserveEdgeUpdatesGraphNotParams) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  const auto snap = model.TakeSnapshot();
  ASSERT_TRUE(model.ObserveEdge(data.edges[0]).ok());
  EXPECT_EQ(model.graph().num_edges(), 1u);
  EXPECT_EQ(model.graph().LastActive(data.edges[0].src),
            data.edges[0].time);
  EXPECT_EQ(model.TakeSnapshot().params, snap.params);
}

TEST(SupaModelTest, AlphaLearnsWhenTimeGapsExist) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  SupaModel model(data, config);
  const NodeTypeId user_type = data.schema.NodeType("User").value();
  const float alpha_before = *model.embeddings().Alpha(user_type);
  // Stream a chunk of real edges (train + observe) so Δ > 0 regularly.
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  EXPECT_NE(*model.embeddings().Alpha(user_type), alpha_before);
}

TEST(SupaModelTest, SharedAlphaUsesSingleSlot) {
  Dataset data = SmallData();
  SupaConfig config = SmallConfig();
  config.shared_alpha = true;
  SupaModel model(data, config);
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  // Slot 0 moved; slot 1 (unused under shared alpha) stayed at exactly 0.
  EXPECT_NE(*model.embeddings().Alpha(0), 0.0f);
  EXPECT_EQ(*model.embeddings().Alpha(1), 0.0f);
}

TEST(SupaModelTest, DeterministicGivenSeed) {
  Dataset data = SmallData();
  SupaModel a(data, SmallConfig());
  SupaModel b(data, SmallConfig());
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(a.ObserveEdge(data.edges[i]).ok());
    ASSERT_TRUE(b.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(b.ObserveEdge(data.edges[i]).ok());
  }
  EXPECT_EQ(a.Score(1, 300, 0), b.Score(1, 300, 0));
  EXPECT_EQ(a.TakeSnapshot().params, b.TakeSnapshot().params);
}

// Walks and negatives are drawn from a stream keyed by (seed, optimizer
// step). Rolling a step back rewinds the optimizer, so training the same
// edge again redraws the same sample and lands on the same bytes.
TEST(SupaModelTest, SerialDrawsDependOnlyOnTheStep) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 2000);
  for (size_t i = 1980; i < 2000; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
  }
  const TemporalEdge& e = data.edges[2000];
  const SupaModel::Snapshot start = model.TakeSnapshot();
  auto first_stats = model.TrainEdge(e);
  ASSERT_TRUE(first_stats.ok());
  ASSERT_GT(first_stats.value().prop_steps, 0u);
  const SupaModel::Snapshot first = model.TakeSnapshot();

  model.RestoreSnapshot(start);
  ASSERT_TRUE(model.TrainEdge(e).ok());
  const SupaModel::Snapshot second = model.TakeSnapshot();
  EXPECT_EQ(second.params, first.params);
  EXPECT_EQ(second.adam.m, first.adam.m);
  EXPECT_EQ(second.adam.v, first.adam.v);
  EXPECT_EQ(second.adam.step, first.adam.step);
}

TEST(SupaModelTest, StreamTrainingSeparatesPositivesFromRandom) {
  // After streaming a chunk, true interacting pairs should on average
  // score above random pairs under the interaction's relation.
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  const size_t n_train = std::min<size_t>(3000, data.edges.size());
  for (size_t i = 0; i < n_train; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  Rng rng(77);
  double pos_sum = 0.0;
  double neg_sum = 0.0;
  int count = 0;
  const auto targets = data.TargetNodes();
  for (size_t i = n_train - 500; i < n_train; ++i) {
    const auto& e = data.edges[i];
    pos_sum += model.Score(e.src, e.dst, e.type);
    neg_sum += model.Score(e.src, targets[rng.Index(targets.size())],
                           e.type);
    ++count;
  }
  EXPECT_GT(pos_sum / count, neg_sum / count);
}

TEST(SupaModelTest, DeleteEdgeRemovesFromGraphAndTrains) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 500);
  const auto& e = data.edges[0];
  const size_t degree_before = model.graph().Degree(e.src);
  auto stats =
      model.DeleteEdge(e.src, e.dst, e.type, model.graph().latest_time());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(model.graph().Degree(e.src), degree_before - 1);
  // The deletion step carries no interaction loss (the pair should not be
  // pulled together), but still refreshes/propagates.
  EXPECT_EQ(stats.value().loss_inter, 0.0);
  EXPECT_GT(stats.value().loss_neg, 0.0);
  // The model's regular loss configuration is restored afterwards.
  auto normal = model.TrainEdge(data.edges[500]);
  ASSERT_TRUE(normal.ok());
  EXPECT_GT(normal.value().loss_inter, 0.0);
}

TEST(SupaModelTest, DeleteEdgeMissingIsNotFound) {
  Dataset data = SmallData();
  SupaModel model(data, SmallConfig());
  Warm(model, data, 10);
  EXPECT_EQ(model.DeleteEdge(0, 1, 0, 100.0).status().code(),
            StatusCode::kNotFound);
}

TEST(SupaModelTest, PropagationFilterLimitsSteps) {
  // With a tiny tau, propagation through any aged edge terminates, so
  // prop_steps collapses versus the permissive default.
  Dataset data = SmallData();
  SupaConfig open_config = SmallConfig();
  open_config.tau = 1e18;
  SupaConfig strict_config = SmallConfig();
  strict_config.tau = 1e-9;

  SupaModel open_model(data, open_config);
  SupaModel strict_model(data, strict_config);
  Warm(open_model, data, 2000);
  Warm(strict_model, data, 2000);

  size_t open_steps = 0;
  size_t strict_steps = 0;
  for (size_t i = 2000; i < 2100; ++i) {
    auto a = open_model.TrainEdge(data.edges[i]);
    auto b = strict_model.TrainEdge(data.edges[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    open_steps += a.value().prop_steps;
    strict_steps += b.value().prop_steps;
  }
  EXPECT_GT(open_steps, 0u);
  EXPECT_LT(strict_steps, open_steps / 2);
}

}  // namespace
}  // namespace supa
