// The SUPA model (§III): relation-specific update + time-aware propagation
// over influenced graphs, trained per-edge with the combined loss of Eq. 13
// and sparse AdamW. All gradients are closed-form (every loss is a logistic
// loss over a dot product), so no autodiff framework is needed.

#ifndef SUPA_CORE_MODEL_H_
#define SUPA_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adam.h"
#include "core/config.h"
#include "core/durability.h"
#include "core/embedding_store.h"
#include "core/sampler.h"
#include "data/dataset.h"
#include "store/graph_store.h"
#include "store/snapshot.h"
#include "util/alias_table.h"

namespace supa {

/// Per-edge training diagnostics.
struct TrainStats {
  double loss_inter = 0.0;
  double loss_prop = 0.0;
  double loss_neg = 0.0;
  /// Number of non-terminated propagation hops.
  size_t prop_steps = 0;

  double total() const { return loss_inter + loss_prop + loss_neg; }
};

/// Per-call switches for one TrainEdge step, layered on top of the model's
/// SupaConfig (a loss runs only when both the config and the options enable
/// it). This is how DeleteEdge suppresses the interaction loss without
/// mutating the model's configuration.
struct TrainOptions {
  bool use_inter_loss = true;
};

/// A banked training step (DESIGN.md §13). Two pipelines share it:
///
///   * kStrict: PlanEdge banks everything TrainEdge consumes from the RNG
///     stream and the graph in arrival order; ExecutePlan (any thread)
///     applies row updates via SparseAdam::StepAt under the group lease;
///     CommitPlan folds the banked side effects in arrival order.
///     Bit-identical to the serial trainer.
///   * kFast: PlanEdgeDeferred only validates and banks graph reads; the
///     sampling moves into ExecutePlanDeferred with a per-step
///     counter-based RNG so workers sample and compute gradients in
///     parallel against the frozen group-start state (reads only); the
///     gradients land in `grads` and CommitPlanDeferred applies the
///     ordinary serial optimizer step in arrival order.
struct EdgePlan {
  TemporalEdge edge;
  TrainOptions options;
  /// Optimizer step number this edge commits as (arrival order; the
  /// serial trainer's Step() would have assigned exactly this number).
  uint64_t step = 0;
  /// Last-active timestamps at plan time — the serial trainer reads them
  /// before the edge is observed.
  Timestamp last_active_u = kNeverActive;
  Timestamp last_active_v = kNeverActive;
  /// Sampled influenced graph: walks from u first, then from v.
  WalkBuffer walks;
  size_t u_walk_count = 0;
  /// Banked negative draws, num_neg for u then num_neg for v;
  /// kInvalidNode marks an exhausted draw (the loss loop skips it exactly
  /// like the serial path).
  std::vector<NodeId> negatives;

  // -- Scheduling footprint (PlanEdge with want_footprint only) --
  /// Every embedding row the step writes (each dim floats; the α tail is
  /// excluded — α commits are serialized by the dispatcher). Walk rows
  /// are included even when propagation terminates early, so the
  /// footprint is a conservative superset of the rows actually touched.
  std::vector<size_t> rows;
  /// Shards covered by `rows`, widened with shard 0 whenever the step may
  /// carry α gradients (the α tail rides with shard 0's write ordering).
  uint64_t shard_mask = 0;

  // -- Execution outputs (ExecutePlan / ExecutePlanDeferred) --
  TrainStats stats;
  /// Rows to mark dirty at commit.
  SparseAdam::BankedDirty dirty;
  /// Deferred α gradients (offset, float-accumulated like GradBuffer's
  /// scalar rows), applied by CommitPlan at this plan's step number.
  /// (kStrict only — the deferred pipeline routes α through `grads`.)
  std::vector<std::pair<size_t, float>> alpha_grads;

  // -- Deferred-apply outputs (kFast; ExecutePlanDeferred) --
  /// The step's full gradient accumulation, applied by
  /// CommitPlanDeferred via the ordinary serial optimizer step.
  GradBuffer grads;
  /// Banked forgetting factors γ = g(σ(α)·Δ) for src/dst: the h^S decay
  /// is scaled into the live rows at commit (in arrival order) rather
  /// than during execution, so shared endpoints lose no updates.
  double gamma_u = 1.0;
  double gamma_v = 1.0;

  // -- Model-monitor sample (kStrict; banked by ExecutePlan) --
  /// True when the executor collected monitor signals; CommitPlan then
  /// records them on the dispatcher, in arrival order, so the monitor's
  /// mutex never sits on a worker's critical path. Norms are L2 over the
  /// step's gradient rows; the dispatcher-committed α tail is excluded.
  bool mon_sampled = false;
  double mon_grad_norm = 0.0;
  double mon_step_norm = 0.0;
  double mon_row_norm_before = 0.0;
  double mon_row_norm_after = 0.0;
};

/// A trainable SUPA instance bound to one dataset's node universe, schema,
/// and metapath set. The model owns its incrementally-built DynamicGraph;
/// callers drive the stream with ObserveEdge (graph insertion) and
/// TrainEdge (gradient step) — InsLearnTrainer does this per Algorithm 1.
class SupaModel {
 public:
  /// Builds an untrained model. The dataset supplies |V|, node types, the
  /// schema, and the (symmetric) metapath schema set.
  SupaModel(const Dataset& data, SupaConfig config);

  /// Inserts an edge into the model's graph, advances last-active
  /// timestamps, and refreshes the negative table periodically. Call once
  /// per stream edge, after its first TrainEdge.
  Status ObserveEdge(const TemporalEdge& e);

  /// One SUPA training step on edge e: sample the influenced graph, update
  /// the interactive nodes (Eq. 5–6, with persistent short-term
  /// forgetting), propagate (Eq. 8–10), add negatives (Eq. 12), and apply
  /// one AdamW step on all touched parameters. Does not insert e into the
  /// graph.
  Result<TrainStats> TrainEdge(const TemporalEdge& e,
                               const TrainOptions& options = TrainOptions{});

  /// Edge deletion (§III-A): removes the most recent (u, v, r) edge from
  /// the graph so walks no longer traverse it, and runs one training step
  /// at time `t` treating the deletion as an interaction signal (the
  /// paper: "edge deletion can be viewed as a special relation ... and
  /// thus shares the same process procedure with edge addition").
  Result<TrainStats> DeleteEdge(NodeId u, NodeId v, EdgeTypeId r,
                                Timestamp t);

  /// Durability replay of a logged removal (dur/recovery.h): undoes the
  /// graph edge and decrements degrees, WITHOUT the deletion's training
  /// step (its parameter effects live in the checkpoint being recovered)
  /// and without re-logging. Not for general use.
  Status ReplayRemoveEdge(NodeId u, NodeId v, EdgeTypeId r);

  /// Recommendation score γ(u, v, r) = h^r_u · h^r_v (Eq. 14–15). Reads
  /// the *live* store — training-internal use (validation runs while the
  /// trainer is parked between batches). Concurrent readers must score on
  /// a snapshot instead.
  double Score(NodeId u, NodeId v, EdgeTypeId r) const;

  /// Writes h^r_v = ½(h^L + h^S + c^r) into `out` (dim floats). Live-store
  /// read; same contract as Score.
  void FinalEmbedding(NodeId v, EdgeTypeId r, float* out) const;

  /// Publishes (or reuses) the storage engine's current epoch. The view
  /// is immutable; the publish itself holds each changed shard's mutex
  /// while it copies that shard's recorded rows and node chunks, so a
  /// training step that needs the shard waits for the copy.
  std::shared_ptr<const store::StoreSnapshot> AcquireSnapshot() const;

  /// Score / final embedding evaluated against an epoch snapshot rather
  /// than the live store — the read path for eval, serving, and scrapes.
  /// Bit-identical to Score/FinalEmbedding on a snapshot of the same
  /// state.
  double ScoreOn(const store::StoreSnapshot& snapshot, NodeId u, NodeId v,
                 EdgeTypeId r) const;
  void FinalEmbeddingOn(const store::StoreSnapshot& snapshot, NodeId v,
                        EdgeTypeId r, float* out) const;

  /// Rebuilds the degree^{3/4} negative-sampling distribution from current
  /// degrees (uniform before any edge is observed).
  Status RebuildNegativeTable();

  /// Full parameter + optimizer snapshot (Algorithm 1's Φ_best).
  struct Snapshot {
    std::vector<float> params;
    SparseAdam::State adam;
  };
  Snapshot TakeSnapshot() const;
  void RestoreSnapshot(const Snapshot& snapshot);

  /// O(dirty) snapshot: the rows touched since the current baseline plus a
  /// shared handle to that baseline. Algorithm 1 snapshots every
  /// I_valid-th iteration but only O(touched-rows) parameters actually
  /// change between snapshots, so copying the dirty rows instead of the
  /// whole buffer turns an O(|V|·(2+R)·d) copy into an O(dirty) one.
  ///
  /// Protocol:
  ///   * The model keeps one full baseline copy (re-established lazily and
  ///     whenever the dirty set outgrows kRebaseDirtyFraction of the
  ///     buffer, which amortizes the occasional full copy).
  ///   * TakeDeltaSnapshot records every row dirty since that baseline.
  ///   * RestoreDeltaSnapshot reverts currently-dirty rows to the baseline
  ///     and re-applies the snapshot's rows — O(dirty) when the snapshot
  ///     shares the live baseline (compared by shared_ptr identity, which
  ///     both sides keep alive, so it cannot alias a recycled object), and
  ///     a full copy from the snapshot's own baseline otherwise, so stale
  ///     snapshots restore correctly after a re-base or a full
  ///     RestoreSnapshot.
  ///
  /// Debug builds additionally embed a full copy in every delta snapshot
  /// and assert after restore that the delta path reproduced it
  /// bit-for-bit.
  struct DeltaSnapshot {
    std::shared_ptr<const Snapshot> baseline;
    /// Dirty rows at snapshot time: row i covers
    /// [offsets[i], offsets[i] + lens[i]) and its payload lives at the
    /// running prefix position in params/m/v.
    std::vector<size_t> offsets;
    std::vector<uint32_t> lens;
    std::vector<float> params;
    std::vector<float> m;
    std::vector<float> v;
    uint64_t adam_step = 0;
    /// Filled only in debug builds (determinism cross-check).
    Snapshot debug_full;
  };
  DeltaSnapshot TakeDeltaSnapshot();
  void RestoreDeltaSnapshot(const DeltaSnapshot& snapshot);

  const DynamicGraph& graph() const { return *graph_; }
  DynamicGraph& mutable_graph() { return *graph_; }
  const SupaConfig& config() const { return config_; }
  EmbeddingStore& store() { return *store_; }
  const EmbeddingStore& store() const { return *store_; }

  /// Attaches (or detaches, with nullptr) the durability edge log. Every
  /// committed graph mutation — ObserveEdge inserts and DeleteEdge
  /// removals, from both the serial trainer and the ingest dispatcher — is
  /// reported in commit order. Not owned.
  void set_edge_log(EdgeLogSink* sink) { edge_log_ = sink; }
  EdgeLogSink* edge_log() const { return edge_log_; }

  /// The model's sampling stream, exposed so durable checkpoints can
  /// resume it mid-flight.
  Rng::State rng_state() const { return rng_.state(); }
  void set_rng_state(const Rng::State& st) { rng_.set_state(st); }

  /// The optimizer, exposed for the durability layer's dirty-row capture
  /// (checkpoint_dirty_rows, moment buffers). Training-path callers go
  /// through TrainEdge / the plan pipeline, never this.
  SparseAdam& optimizer() { return *adam_; }
  const SparseAdam& optimizer() const { return *adam_; }

  /// The storage engine holding this model's graph and embedding shards.
  store::GraphStore& graph_store() { return *graph_store_; }
  const store::GraphStore& graph_store() const { return *graph_store_; }

 private:
  /// Per-interactive-node updater scratch (Eq. 5).
  struct UpdateContext {
    NodeId node = kInvalidNode;
    size_t alpha_offset = 0;
    double delta = 0.0;       // Δ_V
    double decay_input = 0.0; // σ(α)·Δ
    double gamma = 1.0;       // g(σ(α)·Δ)
    std::vector<float> short_before;  // h^S prior to forgetting
    std::vector<float> short_scaled;  // γ·h^S when the decay is deferred
    std::vector<float> h_star;        // target embedding
    std::vector<float> grad_h_star;   // accumulated dL/dh*
  };

 public:
  /// Per-executor reusable scratch for ExecutePlan. One per writer thread;
  /// never shared across concurrent executions.
  struct ExecScratch {
    GradBuffer grads;
    UpdateContext ctx_u;
    UpdateContext ctx_v;
    std::vector<float> hr_u;
    std::vector<float> hr_v;
  };

  // -- Plan/execute/commit split (multi-writer ingest; DESIGN.md §13) --

  /// Stage 1 of a training step: validates the edge and banks everything
  /// the step consumes from the RNG stream and the graph, in exactly the
  /// serial trainer's draw order (walks first, then negatives). Must run
  /// on the dispatcher thread in arrival order; never writes embeddings.
  /// With `want_footprint`, additionally records the step's embedding-row
  /// write set and conservative shard mask for the group scheduler.
  Status PlanEdge(const TemporalEdge& e, const TrainOptions& options,
                  bool want_footprint, EdgePlan* plan);

  /// Stage 2: the banked step's embedding math. Touches only embedding
  /// rows — never the graph, the RNG, or the optimizer's counters — so
  /// plans with disjoint row footprints may execute concurrently, each
  /// with its own scratch. Row updates apply via SparseAdam::StepAt at
  /// plan->step; dirty rows and α gradients are banked into the plan for
  /// CommitPlan. The caller must hold a write lease covering
  /// plan->shard_mask.
  void ExecutePlan(EdgePlan* plan, ExecScratch* scratch);

  /// Stage 3, dispatcher-side, in arrival order: merges the banked dirty
  /// rows, applies the deferred α gradients at the plan's pinned step
  /// number, and advances the optimizer's step counter.
  void CommitPlan(const EdgePlan& plan);

  // -- Deferred-apply pipeline (kFast; DESIGN.md §13) --

  /// kFast stage 1: validates the edge and banks only what must be read
  /// before observation (last-active timestamps) plus the negative table
  /// rebuild. Consumes nothing from the model's RNG stream — sampling is
  /// deferred to ExecutePlanDeferred under a per-step counter-based seed,
  /// so results are independent of the writer count (but diverge from the
  /// serial trainer's draw order). Dispatcher thread, arrival order.
  Status PlanEdgeDeferred(const TemporalEdge& e, const TrainOptions& options,
                          EdgePlan* plan);

  /// kFast stage 2, any thread, no lease required: samples the influenced
  /// graph and negatives from Rng(seed ⊕ plan->step) against the frozen
  /// group-start graph, then computes the step's full gradient into
  /// plan->grads. Reads embeddings, never writes them — the forgetting
  /// decay is banked as plan->gamma_{u,v} and all gradients stay in the
  /// plan until commit.
  void ExecutePlanDeferred(EdgePlan* plan, ExecScratch* scratch);

  /// kFast stage 3, dispatcher-side, arrival order, under `lease`:
  /// scales the banked forgetting into the live h^S rows, merges dirty
  /// rows, and applies plan->grads via the ordinary serial optimizer step
  /// (which advances the step counter to exactly plan->step). Records
  /// every row it writes on `lease`; the lease holder declares the lease
  /// complete once all of its plans are committed.
  void CommitPlanDeferred(const EdgePlan& plan, store::ShardWriteLease* lease);

  /// Optimizer step counter — the ingest dispatcher pins per-edge step
  /// numbers starting from here.
  uint64_t optimizer_step_count() const { return adam_->step_count(); }

 private:
  /// Where the training-step math routes its side effects: straight into
  /// the optimizer (serial TrainEdge) or banked into the plan (pipeline).
  struct MathSink {
    /// Dirty sink for pre-optimizer row writes (updater forgetting);
    /// null → adam_->MarkDirty directly.
    SparseAdam::BankedDirty* dirty = nullptr;
    /// α gradient sink; null → GradBuffer::AccumulateScalar (serial).
    std::vector<std::pair<size_t, float>>* alpha = nullptr;
    /// Gradient accumulator override; null → scratch->grads (serial and
    /// kStrict). The deferred pipeline points this at plan->grads.
    GradBuffer* grads = nullptr;
    /// Deferred forgetting sinks: when set, RunUpdater banks γ here and
    /// decays a scratch copy of h^S instead of the live row (the scale is
    /// applied at commit). Null → in-place decay (serial and kStrict).
    double* gamma_u = nullptr;
    double* gamma_v = nullptr;
  };

  /// Eq. 5: applies forgetting to h^S (in place, or — when
  /// `deferred_gamma` is non-null — to a scratch copy, banking γ for the
  /// commit-time scale) and fills `ctx`. `last_active` is the banked
  /// pre-observation timestamp.
  void RunUpdater(NodeId node, Timestamp t, Timestamp last_active,
                  UpdateContext* ctx, const MathSink& sink,
                  double* deferred_gamma);

  /// Records on `lease` every row a step on `e` wrote: its gradient rows
  /// plus both endpoints' h^S rows, which the forgetting decay scales
  /// outside the optimizer step.
  void RecordStepWrites(const TemporalEdge& e, const GradBuffer& grads,
                        store::ShardWriteLease* lease) const;

  /// Routes dL/dh* into h^L, h^S, and α gradients.
  void BackpropUpdater(const UpdateContext& ctx, GradBuffer& grads,
                       const MathSink& sink);

  /// The full per-edge loss/gradient computation over a banked plan.
  /// Clears scratch->grads, fills it (and the sink's banked outputs), and
  /// returns the step's stats. Shared verbatim by the serial TrainEdge
  /// and ExecutePlan — the two differ only in how gradients are applied.
  TrainStats RunEdgeMath(const EdgePlan& plan, ExecScratch* scratch,
                         const MathSink& sink);

  /// Maps an edge type to its context-embedding slot (shared-context
  /// ablation collapses all relations onto slot 0).
  EdgeTypeId CtxRel(EdgeTypeId r) const {
    return config_.shared_context ? static_cast<EdgeTypeId>(0) : r;
  }

  /// Samples one negative node id != u, v from the model's RNG stream.
  NodeId SampleNegative(NodeId u, NodeId v);
  /// Same, drawing from an external RNG (the deferred pipeline's
  /// per-step stream). Thread-safe on a frozen negative table.
  NodeId SampleNegative(NodeId u, NodeId v, Rng& rng) const;

  /// Drops the delta baseline (after a whole-buffer restore) so stale
  /// delta snapshots take the full-copy fallback.
  void InvalidateDeltaBaseline();

  SupaConfig config_;
  /// Durability edge log (null when durability is off). Not owned.
  EdgeLogSink* edge_log_ = nullptr;
  /// The engine; graph_ and store_ are facades sharing its state.
  std::shared_ptr<store::GraphStore> graph_store_;
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<EmbeddingStore> store_;
  std::unique_ptr<InfluencedGraphSampler> sampler_;
  std::unique_ptr<SparseAdam> adam_;
  Rng rng_;

  std::vector<double> degrees_;
  AliasTable neg_table_;
  size_t observed_since_rebuild_ = 0;

  // delta-snapshot baseline (see DeltaSnapshot)
  std::shared_ptr<const Snapshot> delta_baseline_;

  // reusable scratch (serial TrainEdge path; the pipeline owns its own
  // plans and per-writer scratches)
  EdgePlan serial_plan_;
  ExecScratch serial_scratch_;
  std::vector<double> neg_weight_scratch_;
};

}  // namespace supa

#endif  // SUPA_CORE_MODEL_H_
