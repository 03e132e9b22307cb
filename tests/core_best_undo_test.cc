// Φ_best as an undo log (SupaModel::TakeBest / RestoreBest) must be
// indistinguishable from a full snapshot taken at take time — bit for bit,
// at any shard count, and across the whole Algorithm 1 workflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace supa {
namespace {

SupaConfig SmallConfig(size_t shards = 1) {
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 2;
  config.walk_len = 3;
  config.num_neg = 2;
  config.seed = 5;
  config.shards = shards;
  return config;
}

/// Trains + observes edges [begin, end) of the stream.
void TrainPrefix(SupaModel& model, const Dataset& data, size_t begin,
                 size_t end) {
  for (size_t i = begin; i < end; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
}

void ExpectSameState(const SupaModel::Snapshot& a,
                     const SupaModel::Snapshot& b) {
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.adam.m, b.adam.m);
  EXPECT_EQ(a.adam.v, b.adam.v);
  EXPECT_EQ(a.adam.step, b.adam.step);
}

class BestUndoTest : public ::testing::TestWithParam<size_t> {};

// Random TrainEdge bursts between take and restore, with the short-term
// forgetting and α training on (the defaults): every restore lands on the
// full copy made at take time.
TEST_P(BestUndoTest, RestoreMatchesFullSnapshotAfterRandomBursts) {
  Dataset data = MakeTaobao(0.2, 21).value();
  SupaConfig config = SmallConfig(GetParam());
  ASSERT_TRUE(config.use_short_term && config.use_update_decay);
  SupaModel model(data, config);
  const size_t n = std::min<size_t>(data.edges.size(), 400);
  TrainPrefix(model, data, 0, 60);

  Rng rng(17 + GetParam());
  size_t next = 60;
  for (int round = 0; round < 6; ++round) {
    const SupaModel::Snapshot full = model.TakeSnapshot();
    model.TakeBest();
    // Re-train already-seen edges (parameters only) and some new ones, so
    // rows are written once, several times, and through α.
    const size_t burst = 5 + rng.Index(40);
    for (size_t j = 0; j < burst; ++j) {
      ASSERT_TRUE(model.TrainEdge(data.edges[rng.Index(next)]).ok());
    }
    ASSERT_TRUE(model.RestoreBest().ok());
    ExpectSameState(model.TakeSnapshot(), full);
    const size_t end = std::min(n, next + 30);
    TrainPrefix(model, data, next, end);
    next = end;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, BestUndoTest, ::testing::Values(1, 8));

TEST(BestUndoGenerationTest, ReTakeDiscardsTheOlderGeneration) {
  Dataset data = MakeTaobao(0.2, 22).value();
  SupaModel model(data, SmallConfig());
  TrainPrefix(model, data, 0, 80);
  model.TakeBest();
  TrainPrefix(model, data, 80, 120);
  const SupaModel::Snapshot second = model.TakeSnapshot();
  model.TakeBest();
  TrainPrefix(model, data, 120, 160);
  ASSERT_TRUE(model.RestoreBest().ok());
  ExpectSameState(model.TakeSnapshot(), second);
  // The restore closed the generation: nothing is left to restore.
  EXPECT_EQ(model.RestoreBest().code(), StatusCode::kFailedPrecondition);
  ExpectSameState(model.TakeSnapshot(), second);
}

TEST(BestUndoGenerationTest, RestoreDirectlyAfterTakeWritesNothing) {
  Dataset data = MakeTaobao(0.2, 23).value();
  SupaModel model(data, SmallConfig(4));
  TrainPrefix(model, data, 0, 80);
  model.optimizer().set_checkpoint_tracking(true);
  model.optimizer().ClearCheckpointDirty();
  const SupaModel::Snapshot before = model.TakeSnapshot();
  const auto epoch = model.AcquireSnapshot();

  model.TakeBest();
  EXPECT_TRUE(model.optimizer().undo_rows().empty());
  ASSERT_TRUE(model.RestoreBest().ok());

  ExpectSameState(model.TakeSnapshot(), before);
  // No row was recorded on a lease (the store epoch is unchanged) or as
  // checkpoint-dirty.
  EXPECT_EQ(model.AcquireSnapshot().get(), epoch.get());
  EXPECT_TRUE(model.optimizer().checkpoint_dirty_rows().empty());
  EXPECT_FALSE(model.optimizer().checkpoint_dirty_overflow());
}

TEST(BestUndoGenerationTest, WholeStateRestoreClosesTheGeneration) {
  Dataset data = MakeTaobao(0.2, 24).value();
  SupaModel model(data, SmallConfig());
  TrainPrefix(model, data, 0, 80);
  model.TakeBest();
  TrainPrefix(model, data, 80, 120);
  const SupaModel::Snapshot full = model.TakeSnapshot();
  TrainPrefix(model, data, 120, 150);
  model.RestoreSnapshot(full);

  EXPECT_EQ(model.RestoreBest().code(), StatusCode::kFailedPrecondition);
  ExpectSameState(model.TakeSnapshot(), full);
}

/// Algorithm 1 written out with full snapshots: the reference the trainer's
/// undo-log rollback must reproduce. It trains every iteration up to
/// N_iter, through an IngestPipeline when the trainer's config asks for
/// writers, and rolls back with RestoreSnapshot.
struct ReferenceRun {
  SupaModel::Snapshot state;
  std::vector<double> batch_scores;
};

ReferenceRun RunAlgorithmOne(const InsLearnTrainer& scorer,
                             SupaModel& model, const Dataset& data,
                             size_t end) {
  const InsLearnConfig& c = scorer.config();
  ReferenceRun out;
  Rng valid_rng(c.seed);
  std::unique_ptr<IngestPipeline> pipeline;
  if (c.writer_threads > 1) {
    IngestOptions options;
    options.writers = c.writer_threads;
    pipeline = std::make_unique<IngestPipeline>(model, options);
  }
  for (size_t b0 = 0; b0 < end; b0 += c.batch_size) {
    const size_t b1 = std::min(b0 + c.batch_size, end);
    const size_t valid_len = std::min(c.valid_size, (b1 - b0) / 5);
    const size_t train_end = b1 - valid_len;
    double best_score = 0.0;
    int patience_used = 0;
    bool have_best = false;
    SupaModel::Snapshot best;
    for (int iter = 1; iter <= c.max_iters; ++iter) {
      if (pipeline != nullptr) {
        EXPECT_TRUE(pipeline
                        ->TrainSpan(data.edges, b0, train_end, iter == 1,
                                    nullptr, nullptr, nullptr)
                        .ok());
      } else {
        for (size_t i = b0; i < train_end; ++i) {
          EXPECT_TRUE(model.TrainEdge(data.edges[i]).ok());
          if (iter == 1) {
            EXPECT_TRUE(model.ObserveEdge(data.edges[i]).ok());
          }
        }
      }
      if (valid_len > 0 && iter % c.valid_interval == 0) {
        const double score =
            scorer.ValidationScore(model, data, train_end, b1, valid_rng);
        if (score > best_score) {
          best_score = score;
          best = model.TakeSnapshot();
          have_best = true;
          patience_used = 0;
        } else if (++patience_used > c.patience) {
          break;
        }
      }
      if (valid_len == 0) break;
    }
    if (have_best) model.RestoreSnapshot(best);
    out.batch_scores.push_back(best_score);
    for (size_t i = train_end; i < b1; ++i) {
      EXPECT_TRUE(model.ObserveEdge(data.edges[i]).ok());
    }
  }
  out.state = model.TakeSnapshot();
  return out;
}

TEST(BestUndoInsLearnTest, SerialRunMatchesAlgorithmOneWithFullSnapshots) {
  Dataset data = MakeTaobao(0.3, 26).value();
  const size_t n = std::min<size_t>(data.edges.size(), 600);

  InsLearnConfig config;
  config.batch_size = 128;
  config.valid_size = 32;
  config.valid_interval = 1;
  config.max_iters = 3;
  config.patience = 1;
  config.threads = 1;
  InsLearnTrainer trainer(config);

  SupaModel model(data, SmallConfig());
  auto report = trainer.Train(model, data, EdgeRange{0, n});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().num_batches, 2u);

  SupaModel reference(data, SmallConfig());
  const ReferenceRun want = RunAlgorithmOne(trainer, reference, data, n);
  ExpectSameState(model.TakeSnapshot(), want.state);
  EXPECT_EQ(report.value().batch_scores, want.batch_scores);
}

// I_valid 2 does not divide N_iter 5, so iteration 5 follows the last
// validation (iteration 4) and the rollback would always undo it. The
// trainer does not train it; Algorithm 1 written out does, then restores
// a full snapshot. Both must land on the same bytes: serially at 1 and 8
// shards, and through the 4-writer pipeline.
TEST(BestUndoInsLearnTest, BatchEndsAtItsLastValidation) {
  Dataset data = MakeTaobao(0.3, 27).value();
  const size_t n = std::min<size_t>(data.edges.size(), 600);
  struct Case {
    size_t shards;
    size_t writers;
  };
  for (const Case run : {Case{1, 1}, Case{8, 1}, Case{8, 4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << run.shards
                                      << " writers=" << run.writers);
    InsLearnConfig config;
    config.batch_size = 128;
    config.valid_size = 32;
    config.valid_interval = 2;
    config.max_iters = 5;
    config.patience = 2;
    config.threads = 1;
    config.writer_threads = run.writers;
    InsLearnTrainer trainer(config);

    SupaModel model(data, SmallConfig(run.shards));
    auto report = trainer.Train(model, data, EdgeRange{0, n});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const size_t batches = report.value().num_batches;
    EXPECT_GT(batches, 2u);
    // Every batch validates and so holds a Φ_best by iteration 4.
    EXPECT_EQ(report.value().iterations, batches * 4);

    SupaModel reference(data, SmallConfig(run.shards));
    const ReferenceRun want = RunAlgorithmOne(trainer, reference, data, n);
    ExpectSameState(model.TakeSnapshot(), want.state);
    EXPECT_EQ(report.value().batch_scores, want.batch_scores);
  }
}

}  // namespace
}  // namespace supa
