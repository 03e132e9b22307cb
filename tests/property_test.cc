// Parameterized property-style sweeps over module invariants: these run
// each property across a grid of configurations rather than a single
// hand-picked case.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/model.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "util/alias_table.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace supa {
namespace {

// ---------------------------------------------------------------------------
// Alias table: empirical distribution tracks the weights for arbitrary
// weight shapes.
// ---------------------------------------------------------------------------

class AliasDistributionTest : public ::testing::TestWithParam<int> {};

TEST_P(AliasDistributionTest, EmpiricalMatchesExpected) {
  const int shape = GetParam();
  Rng rng(1000 + shape);
  const size_t n = 50;
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // uniform
        w[i] = 1.0;
        break;
      case 1:  // linear ramp
        w[i] = static_cast<double>(i + 1);
        break;
      case 2:  // Zipf
        w[i] = 1.0 / (i + 1.0);
        break;
      case 3:  // exponential decay
        w[i] = std::exp(-0.2 * static_cast<double>(i));
        break;
      case 4:  // random positive
        w[i] = rng.Uniform(0.1, 10.0);
        break;
      default:  // sparse
        w[i] = (i % 7 == 0) ? 1.0 : 0.0;
    }
  }
  AliasTable table;
  ASSERT_TRUE(table.Build(w).ok());
  const double total = std::accumulate(w.begin(), w.end(), 0.0);

  std::vector<size_t> counts(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[table.Sample(rng)];
  for (size_t i = 0; i < n; ++i) {
    const double expected = w[i] / total;
    const double observed = static_cast<double>(counts[i]) / draws;
    EXPECT_NEAR(observed, expected, 0.01 + 0.1 * expected)
        << "shape " << shape << " outcome " << i;
    if (w[i] == 0.0) {
      EXPECT_EQ(counts[i], 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WeightShapes, AliasDistributionTest,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Decay function: g is a contraction on [0, inf) for every scale, and the
// termination threshold derived from g(tau)=c always inverts exactly.
// ---------------------------------------------------------------------------

class DecayInversionTest : public ::testing::TestWithParam<double> {};

TEST_P(DecayInversionTest, TauInversionExact) {
  const double target = GetParam();
  const double tau = TauFromDecayValue(target);
  EXPECT_NEAR(DecayG(tau), target, 1e-9);
  EXPECT_GE(tau, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, DecayInversionTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.8, 0.99));

// ---------------------------------------------------------------------------
// Ranking metrics: monotonicity in rank for every K.
// ---------------------------------------------------------------------------

class MetricMonotoneTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MetricMonotoneTest, WorseRankNeverScoresHigher) {
  const size_t k = GetParam();
  double prev_hit = 2.0;
  double prev_ndcg = 2.0;
  double prev_rr = 2.0;
  for (size_t rank = 1; rank <= 3 * k; ++rank) {
    EXPECT_LE(HitAtK(rank, k), prev_hit);
    EXPECT_LE(NdcgAtK(rank, k), prev_ndcg);
    EXPECT_LT(ReciprocalRank(rank), prev_rr);
    prev_hit = HitAtK(rank, k);
    prev_ndcg = NdcgAtK(rank, k);
    prev_rr = ReciprocalRank(rank);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, MetricMonotoneTest,
                         ::testing::Values(1, 5, 10, 20, 50));

// ---------------------------------------------------------------------------
// SupaModel: structural invariants hold across embedding sizes and
// ablation variants — losses stay finite, gradients only touch valid
// parameters (exercised implicitly via asan-clean updates), scoring is
// symmetric in its defining identity.
// ---------------------------------------------------------------------------

struct ModelGridParam {
  int dim;
  bool use_short_term;
  bool shared_context;
};

class ModelGridTest : public ::testing::TestWithParam<ModelGridParam> {};

TEST_P(ModelGridTest, TrainingInvariants) {
  const ModelGridParam param = GetParam();
  Dataset data = MakeTaobao(0.1, 400).value();
  SupaConfig config;
  config.dim = param.dim;
  config.use_short_term = param.use_short_term;
  config.shared_context = param.shared_context;
  config.num_walks = 2;
  config.walk_len = 3;
  config.num_neg = 2;
  SupaModel model(data, config);

  double prev_param_change = -1.0;
  std::vector<float> before = model.embeddings().Snapshot();
  for (size_t i = 0; i < 300; ++i) {
    auto stats = model.TrainEdge(data.edges[i]);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(std::isfinite(stats.value().total()));
    EXPECT_GE(stats.value().loss_inter, 0.0);
    EXPECT_GE(stats.value().loss_prop, 0.0);
    EXPECT_GE(stats.value().loss_neg, 0.0);
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  // Parameters moved but stayed finite.
  const std::vector<float> after = model.embeddings().Snapshot();
  double change = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_TRUE(std::isfinite(after[i]));
    change += std::fabs(after[i] - before[i]);
  }
  EXPECT_GT(change, 0.0);
  (void)prev_param_change;

  // Scoring identity: Score == FinalEmbedding dot product.
  const size_t d = static_cast<size_t>(param.dim);
  std::vector<float> hu(d);
  std::vector<float> hv(d);
  model.FinalEmbedding(0, 0, hu.data());
  model.FinalEmbedding(200, 0, hv.data());
  EXPECT_NEAR(model.Score(0, 200, 0), Dot(hu.data(), hv.data(), d), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGridTest,
    ::testing::Values(ModelGridParam{8, true, false},
                      ModelGridParam{16, true, false},
                      ModelGridParam{16, false, false},
                      ModelGridParam{16, true, true},
                      ModelGridParam{32, false, true},
                      ModelGridParam{64, true, false}),
    [](const ::testing::TestParamInfo<ModelGridParam>& info) {
      return "d" + std::to_string(info.param.dim) +
             (info.param.use_short_term ? "_st" : "_nost") +
             (info.param.shared_context ? "_shared" : "_rel");
    });

// ---------------------------------------------------------------------------
// Generator: every dataset scale preserves the schema and sortedness.
// ---------------------------------------------------------------------------

class GeneratorScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorScaleTest, StructurePreservedAcrossScales) {
  const double scale = GetParam();
  auto data = MakeTaobao(scale, 500);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data.value().Validate().ok());
  EXPECT_EQ(data.value().schema.num_edge_types(), 4u);
  EXPECT_EQ(data.value().schema.num_node_types(), 2u);
  EXPECT_GT(data.value().num_edges(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 1.0));

}  // namespace
}  // namespace supa
