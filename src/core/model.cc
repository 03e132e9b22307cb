#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "util/math_utils.h"
#include "util/simd.h"

namespace supa {

namespace {

/// Snapshot-path metrics, shared by every model in the process (the
/// registry is process-global). Looked up once; the handles are trivially
/// copyable and the registry is never destroyed.
struct SnapshotMetrics {
  obs::Counter delta_takes;     // TakeBest calls
  obs::Counter delta_restores;  // RestoreBest calls
  obs::Counter full_takes;
  obs::Counter full_restores;
  obs::Histogram dirty_rows;  // rows each closed Φ_best generation saved
  obs::Gauge undo_bytes;      // SparseAdam::undo_bytes()

  static SnapshotMetrics& Get() {
    static SnapshotMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return SnapshotMetrics{
          reg.GetCounter("snapshot.delta_takes"),
          reg.GetCounter("snapshot.delta_restores"),
          reg.GetCounter("snapshot.full_takes"),
          reg.GetCounter("snapshot.full_restores"),
          reg.GetHistogram(
              "snapshot.dirty_rows",
              obs::MetricsRegistry::ExponentialBounds(1.0, 4.0, 12)),
          reg.GetGauge("snapshot.undo_bytes"),
      };
    }();
    return m;
  }
};

/// L2 norm over every accumulated gradient row — a monitoring read that
/// never mutates the buffer.
double GradBufferL2(const GradBuffer& grads) {
  double sum = 0.0;
  grads.ForEach([&](size_t /*offset*/, const float* g, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      sum += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  });
  return std::sqrt(sum);
}

}  // namespace

SupaModel::SupaModel(const Dataset& data, SupaConfig config)
    : config_(config), rng_(config.seed) {
  // The model owns one storage engine holding graph AND embeddings, so a
  // node's adjacency and its h^L/h^S/c^r rows colocate on the same shard.
  // This is the instrumented store: per-shard gauges and the /statusz
  // shard-balance table describe the trainer's state.
  store::StoreOptions store_options;
  store_options.num_shards = config_.shards;
  store_options.publish_metrics = true;
  graph_store_ = std::make_unique<store::GraphStore>(
      data.schema.num_edge_types(), data.node_types, store_options);
  // Initial row ℓ draws from Rng(SplitMix64At(key, ℓ)), under a key of
  // its own from the model seed (DESIGN.md §11.5); rng_ draws nothing.
  graph_store_->AttachEmbeddings(data.schema.num_edge_types(),
                                 data.schema.num_node_types(), config_.dim,
                                 config_.init_scale,
                                 SplitMix64At(config_.seed, 0));
  bank_ = &graph_store_->embeddings();
  layout_ = &bank_->layout();
  sampler_ = std::make_unique<InfluencedGraphSampler>(
      *graph_store_, data.schema.num_node_types(), data.metapaths,
      config_.num_walks, config_.walk_len);
  adam_ = std::make_unique<SparseAdam>(bank_->size(), config_.lr,
                                       config_.weight_decay);
  adam_->SetRowLayout(static_cast<uint32_t>(config_.dim),
                      layout_->alpha_begin());
  degrees_.assign(data.num_nodes(), 0.0);
}

Status SupaModel::ObserveEdge(const TemporalEdge& e) {
  SUPA_RETURN_NOT_OK(graph_store_->AddEdge(e.src, e.dst, e.type, e.time));
  if (edge_log_ != nullptr) edge_log_->LogAdd(e);
  // New-node checks read the pre-increment degrees; the recorded degrees
  // are post-insert, matching what the negative table will see.
  auto& monitor = obs::ModelMonitor::Global();
  const bool monitored = monitor.enabled();
  const bool src_new = monitored && degrees_[e.src] == 0.0;
  const bool dst_new = monitored && degrees_[e.dst] == 0.0;
  degrees_[e.src] += 1.0;
  degrees_[e.dst] += 1.0;
  if (monitored) {
    monitor.RecordObservedEdge(e.src, e.dst, degrees_[e.src],
                               degrees_[e.dst], src_new, dst_new);
  }
  if (++observed_since_rebuild_ >= config_.neg_table_refresh) {
    SUPA_RETURN_NOT_OK(RebuildNegativeTable());
  }
  return Status::OK();
}

Status SupaModel::RebuildNegativeTable() {
  observed_since_rebuild_ = 0;
  // The weight vector is scratch reused across rebuilds — the table is
  // refreshed every neg_table_refresh observed edges, so reallocating
  // O(|V|) doubles each time adds up on long streams.
  if (graph_store_->num_edges() == 0) {
    // Uniform before any structure exists.
    neg_weight_scratch_.assign(degrees_.size(), 1.0);
    return neg_table_.Build(neg_weight_scratch_);
  }
  neg_weight_scratch_.resize(degrees_.size());
  for (size_t i = 0; i < degrees_.size(); ++i) {
    neg_weight_scratch_[i] = std::pow(degrees_[i], 0.75);
  }
  return neg_table_.Build(neg_weight_scratch_);
}

NodeId SupaModel::SampleNegative(NodeId u, NodeId v, Rng& rng) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    NodeId cand = static_cast<NodeId>(neg_table_.Sample(rng));
    if (cand != u && cand != v) return cand;
  }
  return kInvalidNode;
}

void SupaModel::RunUpdater(NodeId node, Timestamp t, Timestamp last_active,
                           UpdateContext* ctx) {
  const size_t d = static_cast<size_t>(config_.dim);
  ctx->node = node;
  ctx->grad_h_star.assign(d, 0.0f);
  ctx->h_star.resize(d);
  ctx->gamma = 1.0;
  ctx->delta = 0.0;
  ctx->decay_input = 0.0;

  const NodeTypeId otype =
      config_.shared_alpha ? static_cast<NodeTypeId>(0)
                           : graph_store_->NodeType(node);
  ctx->alpha_offset = layout_->AlphaOffset(otype);

  const float* hl = bank_->LongMem(node);
  const float* hs = bank_->ShortMem(node);

  if (config_.use_short_term) {
    ctx->delta =
        (last_active == kNeverActive) ? 0.0 : std::max(0.0, t - last_active);
    ctx->short_before.assign(hs, hs + d);
    if (config_.use_update_decay) {
      const double alpha = *bank_->Alpha(otype);
      ctx->decay_input = Sigmoid(alpha) * ctx->delta;
      ctx->gamma = DecayG(ctx->decay_input);
      // Persistent forgetting: the short-term memory itself decays, and the
      // new interaction's gradient signal is re-encoded into it. The math
      // reads a decayed copy; CommitPlan scales the live row by the same γ,
      // in arrival order, so a pipeline edge sharing this endpoint keeps
      // earlier in-group commits instead of overwriting them with a
      // group-start value.
      ctx->short_scaled.assign(hs, hs + d);
      Scale(ctx->gamma, ctx->short_scaled.data(), d);
      hs = ctx->short_scaled.data();
    }
    simd::Add(hl, hs, ctx->h_star.data(), d);
  } else {
    ctx->short_before.clear();
    std::memcpy(ctx->h_star.data(), hl, d * sizeof(float));
  }
}

void SupaModel::BackpropUpdater(const UpdateContext& ctx, GradBuffer& grads) {
  const size_t d = static_cast<size_t>(config_.dim);
  const float* g = ctx.grad_h_star.data();
  grads.Accumulate(layout_->LongMemOffset(ctx.node), d, 1.0, g);
  if (!config_.use_short_term) return;
  grads.Accumulate(layout_->ShortMemOffset(ctx.node), d, 1.0, g);
  if (config_.use_update_decay && ctx.delta > 0.0) {
    // h* depends on α through the forgetting factor γ = g(σ(α)·Δ):
    // ∂h*/∂α = h^S_before · g'(x)·σ(α)(1-σ(α))·Δ with x = σ(α)·Δ.
    const double alpha =
        bank_->data()[ctx.alpha_offset];
    const double sig = Sigmoid(alpha);
    const double dgamma_dalpha =
        DecayGPrime(ctx.decay_input) * sig * (1.0 - sig) * ctx.delta;
    const double inner =
        Dot(g, ctx.short_before.data(), d) * dgamma_dalpha;
    grads.AccumulateScalar(ctx.alpha_offset, inner);
  }
}

Status SupaModel::PlanEdge(const TemporalEdge& e, const TrainOptions& options,
                           EdgePlan* plan) {
  const size_t n = graph_store_->num_nodes();
  if (e.src >= n || e.dst >= n) {
    return Status::OutOfRange("train edge endpoint out of range");
  }
  if (e.src == e.dst) {
    return Status::InvalidArgument("self loop in training stream");
  }
  plan->edge = e;
  plan->options = options;
  // The last-active timestamps feed Δ_V; the serial trainer reads them at
  // step start, before the edge is observed, so they are banked here.
  plan->last_active_u = graph_store_->LastActive(e.src);
  plan->last_active_v = graph_store_->LastActive(e.dst);
  // Pipeline executors sample the table concurrently and must never mutate
  // it, so a pending build happens here, on the dispatcher. It consumes no
  // RNG and the walks never read it, so building it before the serial
  // step's walk draw leaves that step's draws unchanged.
  if (config_.use_neg_loss && !neg_table_.built()) {
    SUPA_RETURN_NOT_OK(RebuildNegativeTable());
  }
  return Status::OK();
}

void SupaModel::SampleStep(EdgePlan* plan) const {
  // Counter-based stream: one private RNG keyed by (seed, step), so the
  // draws depend only on the optimizer step the edge commits as: never on
  // the writer count, the execution interleaving, or iterations that
  // RestoreBest rolled back (it rewinds the step).
  Rng rng(0x9E3779B97F4A7C15ULL * (plan->step + 1) ^
          (static_cast<uint64_t>(config_.seed) + 0x632BE59BD9B4E019ULL));
  const TemporalEdge& e = plan->edge;
  plan->u_walk_count = 0;
  plan->negatives.clear();
  if (config_.use_prop_loss) {
    SUPA_PHASE(kSample);
    sampler_->SampleInto(e.src, e.dst, rng, &plan->walks,
                         &plan->u_walk_count);
  }
  if (config_.use_neg_loss) {
    const size_t total = 2 * static_cast<size_t>(config_.num_neg);
    plan->negatives.reserve(total);
    for (size_t j = 0; j < total; ++j) {
      plan->negatives.push_back(SampleNegative(e.src, e.dst, rng));
    }
  }
}

void SupaModel::RunEdgeMath(EdgePlan* out, ExecScratch* scratch) {
  const EdgePlan& plan = *out;
  const TemporalEdge& e = plan.edge;
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId r_ctx = CtxRel(e.type);
  TrainStats stats;
  GradBuffer& grads = out->grads;
  UpdateContext& ctx_u = scratch->ctx_u;
  UpdateContext& ctx_v = scratch->ctx_v;

  grads.Clear();
  {
    SUPA_PHASE(kUpdate);
    RunUpdater(e.src, e.time, plan.last_active_u, &ctx_u);
    RunUpdater(e.dst, e.time, plan.last_active_v, &ctx_v);
  }
  out->gamma_u = ctx_u.gamma;
  out->gamma_v = ctx_v.gamma;

  // ---- interaction loss (Eq. 6–7) ----------------------------------------
  if (config_.use_inter_loss && plan.options.use_inter_loss) {
    scratch->hr_u.resize(d);
    scratch->hr_v.resize(d);
    const float* cu = bank_->Context(e.src, r_ctx);
    const float* cv = bank_->Context(e.dst, r_ctx);
    simd::HalfSum(ctx_u.h_star.data(), cu, scratch->hr_u.data(), d);
    simd::HalfSum(ctx_v.h_star.data(), cv, scratch->hr_v.data(), d);
    const double s = Dot(scratch->hr_u.data(), scratch->hr_v.data(), d);
    stats.loss_inter = -LogSigmoid(s);
    const double a = 1.0 - Sigmoid(s);  // -dL/ds
    // dL/dh^r_u = -a·h^r_v; h^r = ½(h* + c) so both receive a ½ factor.
    Axpy(-0.5 * a, scratch->hr_v.data(), ctx_u.grad_h_star.data(), d);
    Axpy(-0.5 * a, scratch->hr_u.data(), ctx_v.grad_h_star.data(), d);
    grads.Accumulate(layout_->ContextOffset(e.src, r_ctx), d, -0.5 * a,
                     scratch->hr_v.data());
    grads.Accumulate(layout_->ContextOffset(e.dst, r_ctx), d, -0.5 * a,
                     scratch->hr_u.data());
  }

  // ---- time-aware propagation (Eq. 8–10) ----------------------------------
  if (config_.use_prop_loss) {
    SUPA_PHASE(kPropagate);
    auto propagate = [&](size_t walk_begin, size_t walk_end,
                         UpdateContext& origin) {
      for (size_t w = walk_begin; w < walk_end; ++w) {
        const WalkBuffer::Span& span = plan.walks.walk(w);
        const WalkStep* steps = plan.walks.steps_of(span);
        double f = 1.0;  // cumulative attenuation along the path
        for (size_t si = 0; si < span.size(); ++si) {
          const WalkStep& step = steps[si];
          if (config_.use_prop_decay) {
            const double delta_e = std::max(0.0, e.time - step.via_time);
            if (FilterD(delta_e, config_.tau) == 0.0) break;  // termination
            f *= DecayG(delta_e);                             // attenuation
          }
          const EdgeTypeId rr = CtxRel(step.via_type);
          const float* c = bank_->Context(step.node, rr);
          // d_{p,z} = f · h*_origin, so s = c·d = f·(c·h*).
          const double s = f * Dot(c, origin.h_star.data(), d);
          stats.loss_prop += -LogSigmoid(s);
          ++stats.prop_steps;
          const double a = 1.0 - Sigmoid(s);
          grads.Accumulate(layout_->ContextOffset(step.node, rr), d, -a * f,
                           origin.h_star.data());
          Axpy(-a * f, c, origin.grad_h_star.data(), d);
        }
      }
    };
    propagate(0, plan.u_walk_count, ctx_u);
    propagate(plan.u_walk_count, plan.walks.num_walks(), ctx_v);
  }

  // ---- negative sampling loss (Eq. 12) -------------------------------------
  if (config_.use_neg_loss) {
    SUPA_PHASE(kNegative);
    const size_t n = static_cast<size_t>(config_.num_neg);
    auto add_negatives = [&](size_t base, UpdateContext& origin) {
      for (size_t j = 0; j < n; ++j) {
        const NodeId neg = plan.negatives[base + j];
        if (neg == kInvalidNode) continue;
        const float* c = bank_->Context(neg, r_ctx);
        const double s = Dot(c, origin.h_star.data(), d);
        stats.loss_neg += -LogSigmoid(-s);
        const double p = Sigmoid(s);  // dL/ds
        grads.Accumulate(layout_->ContextOffset(neg, r_ctx), d, p,
                         origin.h_star.data());
        Axpy(p, c, origin.grad_h_star.data(), d);
      }
    };
    add_negatives(0, ctx_u);
    add_negatives(n, ctx_v);
  }

  {
    SUPA_PHASE(kOptimize);
    BackpropUpdater(ctx_u, grads);
    BackpropUpdater(ctx_v, grads);
  }
  out->stats = stats;
}

Result<TrainStats> SupaModel::TrainEdge(const TemporalEdge& e,
                                        const TrainOptions& options) {
  SUPA_PHASE(kTrainEdge);
  SUPA_RETURN_NOT_OK(PlanEdge(e, options, &serial_plan_));
  serial_plan_.step = adam_->step_count() + 1;
  SampleStep(&serial_plan_);

  // A full training step scatters embedding writes across arbitrary rows
  // (walk and negative contexts land anywhere), so it holds the
  // whole-store write lease; concurrent snapshot publishes wait for the
  // step boundary and then copy only the rows the step recorded. With
  // propagation AND negative sampling both disabled the writes provably
  // stay on the endpoints' rows, so those configurations — ablations and
  // DeleteEdge-heavy maintenance flows on such models — lease just the
  // endpoint shards (+ shard 0 for the α tail) instead of serializing
  // against the whole store.
  store::ShardWriteLease lease =
      (!config_.use_prop_loss && !config_.use_neg_loss)
          ? graph_store_->LeaseMask(
                graph_store_->ShardMaskOf(e.src) |
                graph_store_->ShardMaskOf(e.dst) |
                ((config_.use_short_term && config_.use_update_decay)
                     ? uint64_t{1}
                     : uint64_t{0}))
          : graph_store_->LeaseAll();

  RunEdgeMath(&serial_plan_, &serial_scratch_);
  CommitPlan(serial_plan_, &lease);
  lease.DeclareComplete();
  return serial_plan_.stats;
}

void SupaModel::RecordStepWrites(const TemporalEdge& e,
                                 const GradBuffer& grads,
                                 store::ShardWriteLease* lease) const {
  grads.ForEach([lease](size_t offset, const float*, size_t) {
    lease->RecordRow(offset);
  });
  if (config_.use_short_term && config_.use_update_decay) {
    lease->RecordRow(layout_->ShortMemOffset(e.src));
    lease->RecordRow(layout_->ShortMemOffset(e.dst));
  }
}

void SupaModel::ExecutePlan(EdgePlan* plan, ExecScratch* scratch) {
  SampleStep(plan);
  RunEdgeMath(plan, scratch);
}

void SupaModel::CommitPlan(const EdgePlan& plan,
                           store::ShardWriteLease* lease) {
  SUPA_PHASE(kOptimize);
  const size_t d = static_cast<size_t>(config_.dim);
  if (config_.use_short_term && config_.use_update_decay) {
    // The banked forgetting scales the *live* rows — layered on top of
    // any earlier in-group commits to the same endpoints. It writes
    // parameters outside the optimizer step, so the rows pass the write
    // barrier here, before the scale: an undo generation must save them
    // undecayed.
    adam_->MarkRow(layout_->ShortMemOffset(plan.edge.src),
                   static_cast<uint32_t>(d), bank_->data());
    adam_->MarkRow(layout_->ShortMemOffset(plan.edge.dst),
                   static_cast<uint32_t>(d), bank_->data());
    Scale(plan.gamma_u, bank_->ShortMem(plan.edge.src), d);
    Scale(plan.gamma_v, bank_->ShortMem(plan.edge.dst), d);
  }
  auto& monitor = obs::ModelMonitor::Global();
  const bool monitored = monitor.enabled();
  SparseAdam::StepStats step_stats;
  adam_->Step(plan.grads, bank_->data(), monitored ? &step_stats : nullptr);
  RecordStepWrites(plan.edge, plan.grads, lease);
  if (monitored) {
    monitor.RecordTrainStep(plan.stats.loss_inter, plan.stats.loss_prop,
                            plan.stats.loss_neg, GradBufferL2(plan.grads),
                            std::sqrt(step_stats.sum_update_sq),
                            std::sqrt(step_stats.sum_param_sq_before),
                            std::sqrt(step_stats.sum_param_sq_after));
  }
}

Result<TrainStats> SupaModel::DeleteEdge(NodeId u, NodeId v, EdgeTypeId r,
                                         Timestamp t) {
  SUPA_RETURN_NOT_OK(graph_store_->RemoveEdge(u, v, r));
  if (edge_log_ != nullptr) edge_log_->LogRemove(u, v, r, t);
  degrees_[u] = std::max(0.0, degrees_[u] - 1.0);
  degrees_[v] = std::max(0.0, degrees_[v] - 1.0);
  // Process the deletion like an (inverted) interaction: the update step
  // refreshes both nodes' memories at time t, and the propagation spreads
  // the change through the remaining influenced graph. The interaction
  // loss is skipped — a deleted edge is no longer evidence that u and v
  // should embed closely.
  TrainOptions options;
  options.use_inter_loss = false;
  return TrainEdge(TemporalEdge{u, v, r, t}, options);
}

Status SupaModel::ReplayRemoveEdge(NodeId u, NodeId v, EdgeTypeId r) {
  // Durability replay: reproduce exactly the graph-side effects of
  // DeleteEdge and nothing else. The original deletion's TrainEdge already
  // shaped the parameters captured in the checkpoint, and last-active
  // timestamps are only ever written by graph insertion, so removal +
  // degree decrement is the complete state delta. No edge-log callback —
  // the record being replayed *is* the log entry.
  SUPA_RETURN_NOT_OK(graph_store_->RemoveEdge(u, v, r));
  degrees_[u] = std::max(0.0, degrees_[u] - 1.0);
  degrees_[v] = std::max(0.0, degrees_[v] - 1.0);
  return Status::OK();
}

double SupaModel::Score(NodeId u, NodeId v, EdgeTypeId r) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  return simd::ScoreDot(bank_->LongMem(u), bank_->ShortMem(u),
                        bank_->Context(u, rr), bank_->LongMem(v),
                        bank_->ShortMem(v), bank_->Context(v, rr), short_w,
                        d);
}

void SupaModel::FinalEmbedding(NodeId v, EdgeTypeId r, float* out) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  simd::CombineHalf(bank_->LongMem(v), bank_->ShortMem(v),
                    bank_->Context(v, rr), short_w, out, d);
}

std::shared_ptr<const store::StoreSnapshot> SupaModel::AcquireSnapshot()
    const {
  return graph_store_->AcquireSnapshot();
}

double SupaModel::ScoreOn(const store::StoreSnapshot& snapshot, NodeId u,
                          NodeId v, EdgeTypeId r) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  return simd::ScoreDot(snapshot.LongMem(u), snapshot.ShortMem(u),
                        snapshot.Context(u, rr), snapshot.LongMem(v),
                        snapshot.ShortMem(v), snapshot.Context(v, rr),
                        short_w, d);
}

void SupaModel::FinalEmbeddingOn(const store::StoreSnapshot& snapshot,
                                 NodeId v, EdgeTypeId r, float* out) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  simd::CombineHalf(snapshot.LongMem(v), snapshot.ShortMem(v),
                    snapshot.Context(v, rr), short_w, out, d);
}

SupaModel::Snapshot SupaModel::TakeSnapshot() const {
  SUPA_PHASE(kSnapshotTake);
  SnapshotMetrics::Get().full_takes.Increment();
  return Snapshot{bank_->Snapshot(), adam_->Snapshot()};
}

void SupaModel::RestoreSnapshot(const Snapshot& snapshot) {
  SUPA_PHASE(kSnapshotRestore);
  SnapshotMetrics::Get().full_restores.Increment();
  DiscardBest();
  store::ShardWriteLease lease = graph_store_->LeaseAll();
  bank_->Restore(snapshot.params);
  adam_->Restore(snapshot.adam);
}

Status SupaModel::LoadState(
    uint64_t adam_step,
    const std::function<Status(float* params, float* m, float* v)>& fill) {
  DiscardBest();
  // Undeclared: every shard's next publish copies it whole.
  store::ShardWriteLease lease = graph_store_->LeaseAll();
  const Status st = fill(bank_->data(), adam_->m_data(), adam_->v_data());
  adam_->MarkAllCheckpointDirty();
  if (!st.ok()) return st;
  adam_->set_step_count(adam_step);
  return Status::OK();
}

void SupaModel::TakeBest() {
  SUPA_PHASE(kSnapshotTake);
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  metrics.delta_takes.Increment();
  DiscardBest();
  adam_->OpenUndo();
  metrics.undo_bytes.Set(static_cast<double>(adam_->undo_bytes()));
}

Status SupaModel::RestoreBest() {
  if (!adam_->undo_open()) {
    return Status::FailedPrecondition(
        "RestoreBest: no Φ_best generation is open");
  }
  SUPA_PHASE(kSnapshotRestore);
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  metrics.delta_restores.Increment();
  const std::vector<SparseAdam::RowSpan>& rows = adam_->undo_rows();
  metrics.dirty_rows.Observe(static_cast<double>(rows.size()));
  metrics.undo_bytes.Set(static_cast<double>(adam_->undo_bytes()));
  store::ShardWriteLease lease;
  if (!rows.empty()) {
    lease = graph_store_->LeaseAll();
    for (const SparseAdam::RowSpan& row : rows) lease.RecordRow(row.offset);
    lease.DeclareComplete();
  }
  adam_->RollBackUndo(bank_->data());
  return Status::OK();
}

void SupaModel::DiscardBest() {
  if (!adam_->undo_open()) return;
  SnapshotMetrics::Get().dirty_rows.Observe(
      static_cast<double>(adam_->undo_rows().size()));
  adam_->CloseUndo();
}

}  // namespace supa
