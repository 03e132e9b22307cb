// Multi-writer ingest pipeline invariants (DESIGN.md §13): the pipeline
// is deterministic and writer-count-independent (grouping and the
// per-step RNG depend only on the edge sequence), and tracks the serial
// trainer's step count and ranking quality.

#include <gtest/gtest.h>

#include <cstdio>
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

SupaConfig ModelConfig(size_t shards) {
  SupaConfig c;
  c.dim = 16;
  c.num_walks = 2;
  c.walk_len = 3;
  c.seed = 3;
  c.shards = shards;
  return c;
}

InsLearnConfig TrainConfig(size_t writers) {
  InsLearnConfig tc;
  tc.max_iters = 4;
  tc.valid_interval = 2;
  tc.threads = 1;
  tc.writer_threads = writers;
  return tc;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// One full train + eval + checkpoint run reduced to exactly comparable
/// values (same shape as the shard-invariance harness).
struct PipelineResult {
  std::vector<float> logical_params;
  std::vector<double> batch_scores;
  size_t train_steps = 0;
  RankingResult metrics;
  std::string checkpoint_bytes;
};

PipelineResult RunPipeline(const Dataset& data, size_t shards, size_t writers,
                           const std::string& ckpt_path,
                           SupaConfig model_config) {
  model_config.shards = shards;
  auto split = SplitTemporal(data).value();
  SupaRecommender rec(model_config, TrainConfig(writers));
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
  rec.model()->embeddings().GatherLogical(snap.params.data(),
                                     out.logical_params.data());
  out.batch_scores = rec.last_report().batch_scores;
  out.train_steps = rec.last_report().train_steps;
  out.metrics = metrics.value();
  out.checkpoint_bytes = ReadFileBytes(ckpt_path);
  return out;
}

void ExpectIdentical(const PipelineResult& run, const PipelineResult& base,
                     const std::string& label) {
  EXPECT_EQ(run.train_steps, base.train_steps) << label;
  EXPECT_EQ(run.batch_scores, base.batch_scores) << label;
  EXPECT_EQ(run.logical_params, base.logical_params) << label;
  EXPECT_EQ(run.metrics.hit20, base.metrics.hit20) << label;
  EXPECT_EQ(run.metrics.hit50, base.metrics.hit50) << label;
  EXPECT_EQ(run.metrics.ndcg10, base.metrics.ndcg10) << label;
  EXPECT_EQ(run.metrics.mrr, base.metrics.mrr) << label;
  ASSERT_FALSE(run.checkpoint_bytes.empty()) << label;
  EXPECT_EQ(run.checkpoint_bytes, base.checkpoint_bytes)
      << "checkpoint bytes differ: " << label;
}

class IngestPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/supa_ingest_" + info->name() + ".bin";
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".b").c_str());
  }

  std::string path_;
  Dataset data_;
};

TEST_F(IngestPipelineTest, FastDeterministicAcrossWriterCounts) {
  // Grouping and the per-step RNG depend only on the edge sequence, so 2
  // and 8 writers must produce the same bytes.
  const PipelineResult two =
      RunPipeline(data_, 8, 2, path_, ModelConfig(8));
  const PipelineResult eight =
      RunPipeline(data_, 8, 8, path_ + ".b", ModelConfig(8));
  ExpectIdentical(eight, two, "fast, 8 vs 2 writers");
}

TEST_F(IngestPipelineTest, FastTracksSerialQuality) {
  // The pipeline deliberately diverges from the serial trainer (its group
  // reads embeddings as of the group start) but it is the SAME algorithm
  // on the same step sequence and per-step RNG streams: step counts must
  // match exactly and ranking quality must land in the serial run's
  // neighborhood. Both runs are fully deterministic, so these are fixed
  // values, not flaky bands.
  const PipelineResult serial =
      RunPipeline(data_, 8, 1, path_, ModelConfig(8));
  const PipelineResult fast =
      RunPipeline(data_, 8, 4, path_ + ".b", ModelConfig(8));
  EXPECT_EQ(fast.train_steps, serial.train_steps);
  EXPECT_EQ(fast.batch_scores.size(), serial.batch_scores.size());
  EXPECT_GT(fast.metrics.mrr, 0.0);
  EXPECT_GT(fast.metrics.hit50, 0.0);
  EXPECT_NEAR(fast.metrics.mrr, serial.metrics.mrr, 0.1);
  EXPECT_NEAR(fast.metrics.hit50, serial.metrics.hit50, 0.15);
  ASSERT_FALSE(fast.checkpoint_bytes.empty());
}

}  // namespace
}  // namespace supa
