// The storage engine's determinism contract (DESIGN.md §11): the shard
// count decides only where rows live, never what is computed. Training,
// evaluation metrics, and checkpoint bytes must be bit-identical at any
// SUPA_SHARDS value — these tests run the real pipeline at 1/3/8 shards
// and compare everything exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/recommender.h"
#include "core/inslearn.h"
#include "core/model.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "eval/protocols.h"

namespace supa {
namespace {

SupaConfig Config(size_t shards) {
  SupaConfig c;
  c.dim = 16;
  c.num_walks = 2;
  c.walk_len = 3;
  c.seed = 3;
  c.shards = shards;
  return c;
}

InsLearnConfig TrainConfig() {
  InsLearnConfig tc;
  tc.max_iters = 2;
  tc.valid_interval = 4;
  tc.threads = 1;
  return tc;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Everything one full train + eval + checkpoint run produces, reduced to
/// exactly comparable values.
struct PipelineResult {
  std::vector<float> logical_params;  // canonical layout, via GatherLogical
  RankingResult metrics;
  std::string checkpoint_bytes;
  size_t num_shards = 0;
};

PipelineResult RunPipeline(const Dataset& data, size_t shards,
                           const std::string& ckpt_path) {
  auto split = SplitTemporal(data).value();
  SupaRecommender rec(Config(shards), TrainConfig());
  EXPECT_TRUE(rec.Fit(data, split.train).ok());

  EvalConfig eval;
  eval.max_test_edges = 60;
  eval.threads = 1;
  auto metrics = EvaluateLinkPrediction(rec, data, split.test,
                                        EdgeRange{0, split.valid.end}, eval);
  EXPECT_TRUE(metrics.ok());

  EXPECT_TRUE(SaveCheckpoint(*rec.model(), ckpt_path).ok());

  PipelineResult out;
  const SupaModel::Snapshot snap = rec.model()->TakeSnapshot();
  out.logical_params.resize(snap.params.size());
  rec.model()->store().GatherLogical(snap.params.data(),
                                     out.logical_params.data());
  out.metrics = metrics.value();
  out.checkpoint_bytes = ReadFileBytes(ckpt_path);
  out.num_shards = rec.model()->graph_store().num_shards();
  return out;
}

class ShardInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Shard resolution reads SUPA_SHARDS when the config leaves it 0;
    // isolate from whatever the ctest environment sets.
    if (const char* env = std::getenv("SUPA_SHARDS")) saved_env_ = env;
    unsetenv("SUPA_SHARDS");
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/supa_shardinv_" + info->name() + ".bin";
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".b").c_str());
    if (!saved_env_.empty()) setenv("SUPA_SHARDS", saved_env_.c_str(), 1);
  }

  std::string path_;
  std::string saved_env_;
  Dataset data_;
};

TEST_F(ShardInvarianceTest, TrainEvalAndCheckpointBitIdenticalAt138) {
  PipelineResult base = RunPipeline(data_, 1, path_);
  ASSERT_EQ(base.num_shards, 1u);
  for (size_t shards : {3u, 8u}) {
    PipelineResult run = RunPipeline(data_, shards, path_ + ".b");
    ASSERT_EQ(run.num_shards, shards);
    EXPECT_EQ(run.logical_params, base.logical_params) << shards << " shards";
    EXPECT_EQ(run.metrics.hit20, base.metrics.hit20);
    EXPECT_EQ(run.metrics.hit50, base.metrics.hit50);
    EXPECT_EQ(run.metrics.ndcg10, base.metrics.ndcg10);
    EXPECT_EQ(run.metrics.mrr, base.metrics.mrr);
    EXPECT_EQ(run.metrics.evaluated, base.metrics.evaluated);
    ASSERT_FALSE(run.checkpoint_bytes.empty());
    EXPECT_EQ(run.checkpoint_bytes, base.checkpoint_bytes)
        << "checkpoint bytes differ at " << shards << " shards";
  }
}

TEST_F(ShardInvarianceTest, EnvVariableDrivesResolutionIdentically) {
  // shards=0 + SUPA_SHARDS=3 must behave exactly like an explicit 3.
  PipelineResult explicit_run = RunPipeline(data_, 3, path_);
  setenv("SUPA_SHARDS", "3", 1);
  PipelineResult env_run = RunPipeline(data_, 0, path_ + ".b");
  unsetenv("SUPA_SHARDS");
  ASSERT_EQ(env_run.num_shards, 3u);
  EXPECT_EQ(env_run.logical_params, explicit_run.logical_params);
  EXPECT_EQ(env_run.checkpoint_bytes, explicit_run.checkpoint_bytes);
}

TEST_F(ShardInvarianceTest, CheckpointsPortAcrossShardCounts) {
  // Save under 3 shards, load under 8: scores must transfer exactly. The
  // graph is replayed the same way supa_cli's eval path does.
  SupaModel a(data_, Config(3));
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(a.TrainEdge(data_.edges[i]).ok());
    ASSERT_TRUE(a.ObserveEdge(data_.edges[i]).ok());
  }
  ASSERT_TRUE(SaveCheckpoint(a, path_).ok());

  SupaModel b(data_, Config(8));
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(b.ObserveEdge(data_.edges[i]).ok());
  }
  ASSERT_TRUE(LoadCheckpoint(path_, &b).ok());

  for (NodeId u : {0u, 1u, 2u}) {
    for (NodeId v : {300u, 301u, 350u}) {
      EXPECT_EQ(a.Score(u, v, 0), b.Score(u, v, 0)) << u << "->" << v;
    }
  }
  // And the logical views of the parameter buffers agree bit for bit.
  const SupaModel::Snapshot sa = a.TakeSnapshot();
  const SupaModel::Snapshot sb = b.TakeSnapshot();
  std::vector<float> la(sa.params.size());
  std::vector<float> lb(sb.params.size());
  a.store().GatherLogical(sa.params.data(), la.data());
  b.store().GatherLogical(sb.params.data(), lb.data());
  EXPECT_EQ(la, lb);
}

TEST_F(ShardInvarianceTest, SnapshotScoringMatchesLiveScoring) {
  // ScoreOn(snapshot) is the eval/serving read path; it must agree with
  // the live-store Score used inside training, at a sharded count.
  SupaModel model(data_, Config(8));
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(model.TrainEdge(data_.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data_.edges[i]).ok());
  }
  auto snap = model.AcquireSnapshot();
  std::vector<float> live(static_cast<size_t>(model.config().dim));
  std::vector<float> frozen(static_cast<size_t>(model.config().dim));
  for (NodeId u : {0u, 5u, 9u}) {
    for (NodeId v : {300u, 320u}) {
      EXPECT_EQ(model.Score(u, v, 0), model.ScoreOn(*snap, u, v, 0));
      model.FinalEmbedding(v, 0, live.data());
      model.FinalEmbeddingOn(*snap, v, 0, frozen.data());
      EXPECT_EQ(live, frozen);
    }
  }
}

}  // namespace
}  // namespace supa
