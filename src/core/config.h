// Hyper-parameter and ablation configuration for SUPA and InsLearn.
// Defaults follow §IV-C of the paper (scaled where the paper used a GPU).

#ifndef SUPA_CORE_CONFIG_H_
#define SUPA_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "util/math_utils.h"

namespace supa {

class CheckpointSink;  // core/durability.h

/// Model hyper-parameters (Table I) plus the ablation switches of
/// Tables VII and VIII.
struct SupaConfig {
  /// Embedding dimension d. The paper uses 128; benches default smaller.
  int dim = 64;
  /// k — number of sampled paths per interactive node.
  int num_walks = 4;
  /// l — walk length (number of node positions per path).
  int walk_len = 3;
  /// N_neg — negative samples per interactive node.
  int num_neg = 5;
  /// τ — propagation termination threshold; the paper sets g(τ) = 0.3.
  double tau = TauFromDecayValue(0.3);
  /// Adam learning rate (paper: 3e-3).
  double lr = 3e-3;
  /// Decoupled weight decay (paper: 1e-4).
  double weight_decay = 1e-4;
  /// Scale of the random initialization of all embeddings.
  double init_scale = 0.1;
  /// How many observed edges between rebuilds of the degree^{3/4}
  /// negative-sampling table.
  size_t neg_table_refresh = 2048;
  /// RNG seed for initialization and sampling.
  uint64_t seed = 42;
  /// Storage-engine shard count for the model's graph + embedding banks.
  /// 0 defers to SUPA_SHARDS (then 1). Placement only — results are
  /// bit-identical at any value (DESIGN.md §11).
  size_t shards = 0;

  // ---- Table VII: loss ablations -----------------------------------------
  bool use_inter_loss = true;
  bool use_prop_loss = true;
  bool use_neg_loss = true;

  // ---- Table VIII: heterogeneity ablations --------------------------------
  /// SUPA_sn: one shared α for all node types.
  bool shared_alpha = false;
  /// SUPA_se: one shared context embedding instead of per-relation ones.
  bool shared_context = false;

  // ---- Table VIII: dynamics ablations --------------------------------------
  /// SUPA_nf (negated): keep the short-term memory.
  bool use_short_term = true;
  /// SUPA_nd (negated): apply g(.) and the filter D(.) during propagation.
  bool use_prop_decay = true;
  /// SUPA_nt additionally disables the updater's forgetting.
  bool use_update_decay = true;
};

/// InsLearn workflow parameters (Algorithm 1), defaults per §IV-C.
struct InsLearnConfig {
  /// S_batch.
  size_t batch_size = 1024;
  /// N_iter.
  int max_iters = 30;
  /// I_valid.
  int valid_interval = 8;
  /// S_valid.
  size_t valid_size = 150;
  /// μ — early-stopping patience.
  int patience = 3;
  /// Negatives per validation edge when computing the validation MRR.
  size_t valid_negatives = 100;
  /// SUPA_w/oIns: when false, train by multi-epoch full passes instead of
  /// the single-pass batch workflow.
  bool single_pass = true;
  /// Epoch count for the w/oIns conventional workflow.
  int full_pass_epochs = 5;
  /// §III-A / Table VII: on *static* graphs (a single shared timestamp)
  /// InsLearn gains nothing over conventional training — the paper's own
  /// ablation shows SUPA_w/oIns is on par or better there. When true,
  /// SupaRecommender switches to the multi-epoch workflow for datasets
  /// whose edges all share one timestamp.
  bool auto_static_fallback = true;
  /// Algorithm 1 snapshots Φ_best on every validation improvement and
  /// rolls back at batch end. With delta snapshots both operations copy
  /// only the rows dirtied since a lazily-maintained baseline instead of
  /// the whole parameter buffer (bit-identical either way — see
  /// SupaModel::DeltaSnapshot); false forces the full-copy path.
  bool use_delta_snapshots = true;
  /// Seed for validation negative sampling.
  uint64_t seed = 7;
  /// Emit a throughput heartbeat log line (edges/s so far) roughly every
  /// this many wall-clock seconds while training. 0 disables it. Purely
  /// observational: the heartbeat never touches model state or RNG streams,
  /// so training is bit-identical with it on or off.
  double heartbeat_seconds = 0.0;
  /// Worker threads for the validation-MRR computation. 0 = auto
  /// (std::thread::hardware_concurrency); 1 runs fully serially. The
  /// validation score is bit-identical at every thread count: edges are
  /// cut into fixed shards with SplitMix64-derived per-shard seeds and
  /// reduced in shard order (see util/thread_pool.h).
  size_t threads = 0;
  /// Concurrent writer (embedding-math executor) threads. <= 1 keeps the
  /// serial TrainEdge loop, the bit-identical reference. Values > 1 route
  /// training through IngestPipeline (core/ingest.h): deterministic and
  /// independent of the writer count, but a different byte stream from
  /// the serial loop (DESIGN.md §13).
  size_t writer_threads = 1;
  /// Durability hook (core/durability.h): when set, the single-pass
  /// trainer calls OnCheckpoint at its durable cut points — once before
  /// the first batch, then at batch boundaries per `ckpt_interval`, and
  /// once after the final batch. Not owned; null disables durable cuts.
  CheckpointSink* checkpoint_sink = nullptr;
  /// Batches between periodic durable cuts (>= 1).
  size_t ckpt_interval = 1;
};

}  // namespace supa

#endif  // SUPA_CORE_CONFIG_H_
