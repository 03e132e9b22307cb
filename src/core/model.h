// The SUPA model (§III): relation-specific update + time-aware propagation
// over influenced graphs, trained per-edge with the combined loss of Eq. 13
// and sparse AdamW. All gradients are closed-form (every loss is a logistic
// loss over a dot product), so no autodiff framework is needed.

#ifndef SUPA_CORE_MODEL_H_
#define SUPA_CORE_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adam.h"
#include "core/config.h"
#include "core/durability.h"
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

/// One training step's inputs and outputs (DESIGN.md §13), shared by the
/// serial TrainEdge and the multi-writer pipeline:
///
///   * PlanEdge validates the edge and banks what must be read before the
///     edge is observed.
///   * The step draws its influenced graph and negatives from a
///     counter-based RNG keyed by (seed, step), on both paths, and computes
///     its full gradient into `grads` while reading, never writing, the
///     embeddings.
///   * CommitPlan applies the banked forgetting and `grads` with the
///     ordinary optimizer step.
struct EdgePlan {
  TemporalEdge edge;
  TrainOptions options;
  /// The optimizer step number this edge commits as (arrival order: the
  /// optimizer's step count + 1 for the serial trainer; pinned by the
  /// ingest dispatcher for a group). Keys SampleStep's RNG.
  uint64_t step = 0;
  /// Last-active timestamps at plan time — the serial trainer reads them
  /// before the edge is observed.
  Timestamp last_active_u = kNeverActive;
  Timestamp last_active_v = kNeverActive;
  /// Sampled influenced graph: walks from u first, then from v.
  WalkBuffer walks;
  size_t u_walk_count = 0;
  /// Sampled negatives, num_neg for u then num_neg for v; kInvalidNode
  /// marks an exhausted draw (the loss loop skips it).
  std::vector<NodeId> negatives;

  TrainStats stats;
  /// The step's full gradient accumulation.
  GradBuffer grads;
  /// Forgetting factors γ = g(σ(α)·Δ) for src/dst: the h^S decay is
  /// scaled into the live rows at commit rather than during the math, so
  /// pipeline edges that share an endpoint lose no updates.
  double gamma_u = 1.0;
  double gamma_v = 1.0;
};

/// A trainable SUPA instance bound to one dataset's node universe, schema,
/// and metapath set. The model owns one storage engine holding its
/// incrementally-built graph and its embeddings; callers drive the stream
/// with ObserveEdge (graph insertion) and TrainEdge (gradient step) —
/// InsLearnTrainer does this per Algorithm 1.
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

  /// Full parameter + optimizer copy: a reference point for tests and
  /// tools. Training rolls back through TakeBest/RestoreBest instead.
  struct Snapshot {
    std::vector<float> params;
    SparseAdam::State adam;
  };
  Snapshot TakeSnapshot() const;
  /// A whole-state write: discards the open Φ_best generation and marks
  /// the whole state checkpoint-dirty.
  void RestoreSnapshot(const Snapshot& snapshot);

  /// Algorithm 1's Φ_best as an undo log (DESIGN.md §8.4). TakeBest opens
  /// a generation in O(1), discarding the open one; from then on the
  /// optimizer's write barrier saves each row's params, m and v before its
  /// first write. RestoreBest writes those rows back, restores the Adam
  /// step and closes the generation: O(rows written since the take), so a
  /// restore directly after a take writes nothing. It records every row
  /// it writes on a declared store lease, so the next epoch copies only
  /// those. FailedPrecondition, writing nothing, when no generation is
  /// open — including after a whole-state write closed it.
  void TakeBest();
  Status RestoreBest();

  /// A whole-state write, like RestoreSnapshot: discards the open Φ_best
  /// generation, then calls `fill` once, under one undeclared LeaseAll,
  /// with the live params, m and v buffers (physical layout;
  /// embeddings().ScatterLogicalRange places a range given in the logical
  /// one). Then the Adam step is `adam_step` and the whole state is
  /// checkpoint-dirty. A `fill` that fails part-way leaves the state
  /// partly written and its Status is returned. Checkpoint loads and
  /// recovery stream a validated chain through it.
  Status LoadState(uint64_t adam_step,
                   const std::function<Status(float* params, float* m,
                                              float* v)>& fill);

  /// The model's graph: the storage engine's live read API.
  const store::GraphStore& graph() const { return *graph_store_; }
  const SupaConfig& config() const { return config_; }
  /// The parameters h^L, h^S, c^r and α; offsets and sizes come from
  /// embeddings().layout().
  store::EmbeddingBank& embeddings() { return *bank_; }
  const store::EmbeddingBank& embeddings() const { return *bank_; }

  /// Attaches (or detaches, with nullptr) the durability edge log. Every
  /// committed graph mutation — ObserveEdge inserts and DeleteEdge
  /// removals, from both the serial trainer and the ingest dispatcher — is
  /// reported in commit order. Not owned.
  void set_edge_log(EdgeLogSink* sink) { edge_log_ = sink; }
  EdgeLogSink* edge_log() const { return edge_log_; }

  /// The model RNG's state. It only draws the initial embeddings (training
  /// draws are keyed by step), so the state is fixed after construction;
  /// durable cursors still record it in their MANIFEST field.
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
    std::vector<float> short_scaled;  // γ·h^S (the live row decays at commit)
    std::vector<float> h_star;        // target embedding
    std::vector<float> grad_h_star;   // accumulated dL/dh*
  };

 public:
  /// Per-executor reusable scratch for the step math. One per writer
  /// thread; never shared across concurrent executions.
  struct ExecScratch {
    UpdateContext ctx_u;
    UpdateContext ctx_v;
    std::vector<float> hr_u;
    std::vector<float> hr_v;
  };

  // -- Plan/execute/commit split (multi-writer ingest; DESIGN.md §13) --

  /// Stage 1: validates the edge, banks the pre-observation last-active
  /// timestamps, and builds the negative table if it is still pending.
  /// Consumes nothing from any RNG. Dispatcher thread, arrival order.
  Status PlanEdge(const TemporalEdge& e, const TrainOptions& options,
                  EdgePlan* plan);

  /// Stage 2, any thread, no lease required: samples the influenced
  /// graph and negatives from Rng(seed ⊕ plan->step) against the frozen
  /// group-start graph, then computes the step's full gradient into
  /// plan->grads. Reads embeddings, never writes them. The per-step
  /// stream is the serial trainer's too and makes results independent of
  /// the writer count; the group-start reads are what differ from serial.
  void ExecutePlan(EdgePlan* plan, ExecScratch* scratch);

  /// Stage 3, in arrival order, under `lease`: passes both endpoints' h^S
  /// rows through the write barrier, scales the banked forgetting into
  /// them, and applies plan.grads via the ordinary optimizer step (which
  /// advances the step counter to exactly plan.step). Records every row it
  /// writes on `lease`; the lease holder declares the lease complete once
  /// all of its plans are committed.
  void CommitPlan(const EdgePlan& plan, store::ShardWriteLease* lease);

  /// Optimizer step counter — the ingest dispatcher pins per-edge step
  /// numbers starting from here.
  uint64_t optimizer_step_count() const { return adam_->step_count(); }

 private:
  /// Eq. 5: decays a scratch copy of h^S by γ (banked in ctx->gamma; the
  /// live row is scaled at commit) and fills `ctx`. `last_active` is the
  /// banked pre-observation timestamp.
  void RunUpdater(NodeId node, Timestamp t, Timestamp last_active,
                  UpdateContext* ctx);

  /// Records on `lease` every row a step on `e` wrote: its gradient rows
  /// plus both endpoints' h^S rows, which the forgetting decay scales
  /// outside the optimizer step.
  void RecordStepWrites(const TemporalEdge& e, const GradBuffer& grads,
                        store::ShardWriteLease* lease) const;

  /// Routes dL/dh* into h^L, h^S, and α gradients.
  void BackpropUpdater(const UpdateContext& ctx, GradBuffer& grads);

  /// Draws the step's walks and negatives from the stream keyed by
  /// (seed, plan->step), for TrainEdge and ExecutePlan alike. Thread-safe
  /// on a frozen graph and negative table.
  void SampleStep(EdgePlan* plan) const;

  /// The full per-edge loss/gradient computation over a sampled plan:
  /// fills out->grads, out->gamma_{u,v} and out->stats. Shared verbatim
  /// by TrainEdge and ExecutePlan.
  void RunEdgeMath(EdgePlan* out, ExecScratch* scratch);

  /// Maps an edge type to its context-embedding slot (shared-context
  /// ablation collapses all relations onto slot 0).
  EdgeTypeId CtxRel(EdgeTypeId r) const {
    return config_.shared_context ? static_cast<EdgeTypeId>(0) : r;
  }

  /// Samples one negative node id != u, v from `rng`. Thread-safe on a
  /// frozen negative table.
  NodeId SampleNegative(NodeId u, NodeId v, Rng& rng) const;

  /// Closes the open Φ_best generation, if any, without writing.
  void DiscardBest();

  SupaConfig config_;
  /// Durability edge log (null when durability is off). Not owned.
  EdgeLogSink* edge_log_ = nullptr;
  /// The engine, and its bank and layout cached so a row access costs no
  /// more hops than the offset arithmetic.
  std::unique_ptr<store::GraphStore> graph_store_;
  store::EmbeddingBank* bank_ = nullptr;
  const store::EmbeddingLayout* layout_ = nullptr;
  std::unique_ptr<InfluencedGraphSampler> sampler_;
  std::unique_ptr<SparseAdam> adam_;
  Rng rng_;  // draws the initial embeddings only

  std::vector<double> degrees_;
  AliasTable neg_table_;
  size_t observed_since_rebuild_ = 0;

  // reusable scratch (serial TrainEdge path; the pipeline owns its own
  // plans and per-writer scratches)
  EdgePlan serial_plan_;
  ExecScratch serial_scratch_;
  std::vector<double> neg_weight_scratch_;
};

}  // namespace supa

#endif  // SUPA_CORE_MODEL_H_
