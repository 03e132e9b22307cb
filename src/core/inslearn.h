// InsLearn (Algorithm 1): single-pass incremental training of SUPA.
//
// The edge stream is cut into sequential batches of S_batch edges; within
// each batch the last S_valid edges form the validation set. The model is
// trained up to N_iter iterations per batch, validated every I_valid
// iterations, early-stopped with patience μ, and rolled back to the best
// validated snapshot before the next batch. Once a best snapshot exists,
// a batch ends at its last validation: the rollback would undo every later
// iteration, so they are not trained. The SUPA_w/oIns ablation
// (conventional multi-epoch training) is available via
// InsLearnConfig::single_pass = false.

#ifndef SUPA_CORE_INSLEARN_H_
#define SUPA_CORE_INSLEARN_H_

#include <vector>

#include "core/durability.h"
#include "core/model.h"
#include "data/splits.h"

namespace supa {

/// Summary of one training run.
struct InsLearnReport {
  /// Number of batches processed (1 for the w/oIns workflow).
  size_t num_batches = 0;
  /// Best validation MRR per batch (or per epoch for w/oIns).
  std::vector<double> batch_scores;
  /// Total TrainEdge invocations.
  size_t train_steps = 0;
  /// Total within-batch iterations executed.
  size_t iterations = 0;

  // Per-phase wall-clock breakdown (seconds), for the runtime benches.
  /// Time inside TrainEdge calls.
  double train_seconds = 0.0;
  /// Time computing validation MRR.
  double valid_seconds = 0.0;
  /// Time inside TakeBest + RestoreBest (the Φ_best undo log).
  double snapshot_seconds = 0.0;
  /// Time inserting edges into the graph (ObserveEdge).
  double observe_seconds = 0.0;
  /// Time inside durable checkpoint cuts (CheckpointSink::OnCheckpoint).
  double checkpoint_seconds = 0.0;
};

/// Drives SupaModel training over an edge range of a dataset.
class InsLearnTrainer {
 public:
  explicit InsLearnTrainer(InsLearnConfig config) : config_(config) {}

  /// Trains `model` on edges [range.begin, range.end) of `data`. The model
  /// must have been constructed for this dataset and not have observed the
  /// range yet.
  ///
  /// `resume` (single-pass workflow only) continues a previous run from a
  /// durable cursor: training restarts at cursor.next_edge_index with the
  /// validation RNG stream restored, producing the exact batch sequence —
  /// and bit-identical final state — the uninterrupted run would have. The
  /// model must already hold the cursor's state (dur::Recover does this).
  Result<InsLearnReport> Train(SupaModel& model, const Dataset& data,
                               EdgeRange range,
                               const TrainerCursor* resume = nullptr);

  const InsLearnConfig& config() const { return config_; }

  /// Validation score θ over edges [begin, end) of `data`: mean reciprocal
  /// rank of each edge's destination against `valid_negatives` sampled
  /// same-type negatives. Draws one value from `rng` to key the round,
  /// then ranks the edges on up to `config_.threads` workers with
  /// deterministic sharding — the score is bit-identical at every thread
  /// count.
  double ValidationScore(const SupaModel& model, const Dataset& data,
                         size_t begin, size_t end, Rng& rng) const;

 private:
  Result<InsLearnReport> TrainSinglePass(SupaModel& model,
                                         const Dataset& data, EdgeRange range,
                                         const TrainerCursor* resume);
  Result<InsLearnReport> TrainFullPass(SupaModel& model, const Dataset& data,
                                       EdgeRange range);

  InsLearnConfig config_;
};

}  // namespace supa

#endif  // SUPA_CORE_INSLEARN_H_
