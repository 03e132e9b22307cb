#include "core/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/math_utils.h"
#include "util/simd.h"

namespace supa {

namespace {

/// Re-base the delta-snapshot baseline once the dirty set covers this
/// fraction of the parameter buffer: beyond it a delta stops being
/// meaningfully cheaper than a full copy.
constexpr double kRebaseDirtyFraction = 0.25;

/// Snapshot-path counters, shared by every model in the process (the
/// registry is process-global). Looked up once; the handles are trivially
/// copyable and the registry is never destroyed.
struct SnapshotMetrics {
  obs::Counter delta_takes;
  obs::Counter rebases;
  obs::Counter delta_restores;
  obs::Counter fallback_restores;
  obs::Counter full_takes;
  obs::Counter full_restores;
  obs::Histogram dirty_rows;

  static SnapshotMetrics& Get() {
    static SnapshotMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return SnapshotMetrics{
          reg.GetCounter("snapshot.delta_takes"),
          reg.GetCounter("snapshot.rebases"),
          reg.GetCounter("snapshot.delta_restores"),
          reg.GetCounter("snapshot.fallback_restores"),
          reg.GetCounter("snapshot.full_takes"),
          reg.GetCounter("snapshot.full_restores"),
          reg.GetHistogram(
              "snapshot.dirty_rows",
              obs::MetricsRegistry::ExponentialBounds(1.0, 4.0, 12)),
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
  graph_store_ = std::make_shared<store::GraphStore>(
      data.schema.num_edge_types(), data.node_types, store_options);
  graph_store_->AttachEmbeddings(data.schema.num_edge_types(),
                                 data.schema.num_node_types(), config_.dim,
                                 config_.init_scale, rng_);
  graph_ = std::make_unique<DynamicGraph>(graph_store_, data.schema);
  store_ =
      std::make_unique<EmbeddingStore>(graph_store_->shared_embeddings());
  sampler_ = std::make_unique<InfluencedGraphSampler>(
      *graph_store_, data.schema.num_node_types(), data.metapaths,
      config_.num_walks, config_.walk_len);
  adam_ = std::make_unique<SparseAdam>(store_->size(), config_.lr,
                                       config_.weight_decay);
  degrees_.assign(data.num_nodes(), 0.0);
}

Status SupaModel::ObserveEdge(const TemporalEdge& e) {
  SUPA_RETURN_NOT_OK(graph_->AddEdge(e.src, e.dst, e.type, e.time));
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
  if (graph_->num_edges() == 0) {
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

NodeId SupaModel::SampleNegative(NodeId u, NodeId v) {
  return SampleNegative(u, v, rng_);
}

NodeId SupaModel::SampleNegative(NodeId u, NodeId v, Rng& rng) const {
  for (int attempt = 0; attempt < 8; ++attempt) {
    NodeId cand = static_cast<NodeId>(neg_table_.Sample(rng));
    if (cand != u && cand != v) return cand;
  }
  return kInvalidNode;
}

void SupaModel::RunUpdater(NodeId node, Timestamp t, Timestamp last_active,
                           UpdateContext* ctx, const MathSink& sink,
                           double* deferred_gamma) {
  const size_t d = static_cast<size_t>(config_.dim);
  ctx->node = node;
  ctx->grad_h_star.assign(d, 0.0f);
  ctx->h_star.resize(d);
  ctx->gamma = 1.0;
  ctx->delta = 0.0;
  ctx->decay_input = 0.0;

  const NodeTypeId otype =
      config_.shared_alpha ? static_cast<NodeTypeId>(0)
                           : graph_->NodeType(node);
  ctx->alpha_offset = store_->AlphaOffset(otype);

  const float* hl = store_->LongMem(node);
  float* hs = store_->ShortMem(node);

  if (config_.use_short_term) {
    ctx->delta =
        (last_active == kNeverActive) ? 0.0 : std::max(0.0, t - last_active);
    if (config_.use_update_decay) {
      const double alpha = *store_->Alpha(otype);
      ctx->decay_input = Sigmoid(alpha) * ctx->delta;
      ctx->gamma = DecayG(ctx->decay_input);
      ctx->short_before.assign(hs, hs + d);
      // Persistent forgetting: the short-term memory itself decays, and the
      // new interaction's gradient signal is re-encoded into it. This
      // mutates parameters outside the optimizer, so the row is marked
      // dirty here rather than relying on the optimizer step that
      // normally follows (TrainEdge can error out in between). Pipeline
      // executors bank the mark instead — the shared dirty set is not
      // thread-safe.
      if (sink.dirty != nullptr) {
        sink.dirty->emplace_back(store_->ShortMemOffset(node),
                                 static_cast<uint32_t>(d));
      } else {
        adam_->MarkDirty(store_->ShortMemOffset(node),
                         static_cast<uint32_t>(d));
      }
      if (deferred_gamma != nullptr) {
        // Deferred decay: bank γ and work on a scratch copy. The live row
        // is scaled at commit, in arrival order, so a shared endpoint
        // keeps earlier in-group commits instead of being overwritten
        // with a group-start value. The scale-then-read sequence matches
        // the in-place path bit-for-bit when rows don't overlap.
        *deferred_gamma = ctx->gamma;
        ctx->short_scaled.assign(hs, hs + d);
        Scale(ctx->gamma, ctx->short_scaled.data(), d);
        hs = ctx->short_scaled.data();
      } else {
        Scale(ctx->gamma, hs, d);
      }
    } else {
      ctx->short_before.assign(hs, hs + d);
    }
    simd::Add(hl, hs, ctx->h_star.data(), d);
  } else {
    ctx->short_before.clear();
    std::memcpy(ctx->h_star.data(), hl, d * sizeof(float));
  }
}

void SupaModel::BackpropUpdater(const UpdateContext& ctx, GradBuffer& grads,
                                const MathSink& sink) {
  const size_t d = static_cast<size_t>(config_.dim);
  const float* g = ctx.grad_h_star.data();
  grads.Accumulate(store_->LongMemOffset(ctx.node), d, 1.0, g);
  if (!config_.use_short_term) return;
  grads.Accumulate(store_->ShortMemOffset(ctx.node), d, 1.0, g);
  if (config_.use_update_decay && ctx.delta > 0.0) {
    // h* depends on α through the forgetting factor γ = g(σ(α)·Δ):
    // ∂h*/∂α = h^S_before · g'(x)·σ(α)(1-σ(α))·Δ with x = σ(α)·Δ.
    const double alpha =
        store_->data()[ctx.alpha_offset];
    const double sig = Sigmoid(alpha);
    const double dgamma_dalpha =
        DecayGPrime(ctx.decay_input) * sig * (1.0 - sig) * ctx.delta;
    const double inner =
        Dot(g, ctx.short_before.data(), d) * dgamma_dalpha;
    if (sink.alpha != nullptr) {
      // Deferred α: accumulate in float exactly like the GradBuffer row
      // the serial path uses (u's and v's contributions may share one α).
      float* cell = nullptr;
      for (auto& entry : *sink.alpha) {
        if (entry.first == ctx.alpha_offset) {
          cell = &entry.second;
          break;
        }
      }
      if (cell == nullptr) {
        sink.alpha->emplace_back(ctx.alpha_offset, 0.0f);
        cell = &sink.alpha->back().second;
      }
      *cell += static_cast<float>(inner);
    } else {
      grads.AccumulateScalar(ctx.alpha_offset, inner);
    }
  }
}

Status SupaModel::PlanEdge(const TemporalEdge& e, const TrainOptions& options,
                           bool want_footprint, EdgePlan* plan) {
  if (e.src >= graph_->num_nodes() || e.dst >= graph_->num_nodes()) {
    return Status::OutOfRange("train edge endpoint out of range");
  }
  if (e.src == e.dst) {
    return Status::InvalidArgument("self loop in training stream");
  }
  plan->edge = e;
  plan->options = options;
  // The last-active timestamps feed Δ_V; the serial trainer reads them at
  // step start, before the edge is observed, so they are banked here.
  plan->last_active_u = graph_->LastActive(e.src);
  plan->last_active_v = graph_->LastActive(e.dst);
  plan->u_walk_count = 0;
  plan->negatives.clear();
  plan->rows.clear();
  plan->shard_mask = 0;

  // RNG draw order matches the serial trainer exactly: walks first, then
  // the (possibly rebuilt) negative table's draws.
  if (config_.use_prop_loss) {
    SUPA_TRACE_SPAN_CAT("sample", "model");
    SUPA_PERF_SCOPE(kSample);
    sampler_->SampleInto(e.src, e.dst, rng_, &plan->walks,
                         &plan->u_walk_count);
  }
  if (config_.use_neg_loss) {
    if (!neg_table_.built()) {
      SUPA_RETURN_NOT_OK(RebuildNegativeTable());
    }
    const size_t total = 2 * static_cast<size_t>(config_.num_neg);
    plan->negatives.reserve(total);
    for (size_t j = 0; j < total; ++j) {
      plan->negatives.push_back(SampleNegative(e.src, e.dst));
    }
  }

  if (want_footprint) {
    const EdgeTypeId r_ctx = CtxRel(e.type);
    auto touch = [&](NodeId node, size_t offset) {
      plan->rows.push_back(offset);
      plan->shard_mask |= graph_store_->ShardMaskOf(node);
    };
    touch(e.src, store_->LongMemOffset(e.src));
    touch(e.dst, store_->LongMemOffset(e.dst));
    if (config_.use_short_term) {
      touch(e.src, store_->ShortMemOffset(e.src));
      touch(e.dst, store_->ShortMemOffset(e.dst));
    }
    if (config_.use_inter_loss && options.use_inter_loss) {
      touch(e.src, store_->ContextOffset(e.src, r_ctx));
      touch(e.dst, store_->ContextOffset(e.dst, r_ctx));
    }
    if (config_.use_prop_loss) {
      // Every walk row, including those the filter D(.) would terminate
      // before — the footprint must be a superset of the writes, and
      // termination depends on edge time, cheap to over-approximate.
      for (size_t w = 0; w < plan->walks.num_walks(); ++w) {
        const WalkBuffer::Span& span = plan->walks.walk(w);
        const WalkStep* steps = plan->walks.steps_of(span);
        for (size_t si = 0; si < span.size(); ++si) {
          touch(steps[si].node,
                store_->ContextOffset(steps[si].node,
                                      CtxRel(steps[si].via_type)));
        }
      }
    }
    if (config_.use_neg_loss) {
      for (NodeId neg : plan->negatives) {
        if (neg == kInvalidNode) continue;
        touch(neg, store_->ContextOffset(neg, r_ctx));
      }
    }
    if (config_.use_short_term && config_.use_update_decay) {
      // The α tail rides with shard 0's write ordering; the α row itself
      // is excluded from `rows` (dispatcher-committed, never raced).
      plan->shard_mask |= uint64_t{1};
    }
  }
  return Status::OK();
}

TrainStats SupaModel::RunEdgeMath(const EdgePlan& plan, ExecScratch* scratch,
                                  const MathSink& sink) {
  const TemporalEdge& e = plan.edge;
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId r_ctx = CtxRel(e.type);
  TrainStats stats;
  GradBuffer& grads = sink.grads != nullptr ? *sink.grads : scratch->grads;
  UpdateContext& ctx_u = scratch->ctx_u;
  UpdateContext& ctx_v = scratch->ctx_v;

  grads.Clear();
  {
    SUPA_TRACE_SPAN_CAT("update", "model");
    SUPA_PERF_SCOPE(kUpdate);
    RunUpdater(e.src, e.time, plan.last_active_u, &ctx_u, sink, sink.gamma_u);
    RunUpdater(e.dst, e.time, plan.last_active_v, &ctx_v, sink, sink.gamma_v);
  }

  // ---- interaction loss (Eq. 6–7) ----------------------------------------
  if (config_.use_inter_loss && plan.options.use_inter_loss) {
    scratch->hr_u.resize(d);
    scratch->hr_v.resize(d);
    const float* cu = store_->Context(e.src, r_ctx);
    const float* cv = store_->Context(e.dst, r_ctx);
    simd::HalfSum(ctx_u.h_star.data(), cu, scratch->hr_u.data(), d);
    simd::HalfSum(ctx_v.h_star.data(), cv, scratch->hr_v.data(), d);
    const double s = Dot(scratch->hr_u.data(), scratch->hr_v.data(), d);
    stats.loss_inter = -LogSigmoid(s);
    const double a = 1.0 - Sigmoid(s);  // -dL/ds
    // dL/dh^r_u = -a·h^r_v; h^r = ½(h* + c) so both receive a ½ factor.
    Axpy(-0.5 * a, scratch->hr_v.data(), ctx_u.grad_h_star.data(), d);
    Axpy(-0.5 * a, scratch->hr_u.data(), ctx_v.grad_h_star.data(), d);
    grads.Accumulate(store_->ContextOffset(e.src, r_ctx), d, -0.5 * a,
                     scratch->hr_v.data());
    grads.Accumulate(store_->ContextOffset(e.dst, r_ctx), d, -0.5 * a,
                     scratch->hr_u.data());
  }

  // ---- time-aware propagation (Eq. 8–10) ----------------------------------
  if (config_.use_prop_loss) {
    SUPA_TRACE_SPAN_CAT("propagate", "model");
    SUPA_PERF_SCOPE(kPropagate);
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
          const float* c = store_->Context(step.node, rr);
          // d_{p,z} = f · h*_origin, so s = c·d = f·(c·h*).
          const double s = f * Dot(c, origin.h_star.data(), d);
          stats.loss_prop += -LogSigmoid(s);
          ++stats.prop_steps;
          const double a = 1.0 - Sigmoid(s);
          grads.Accumulate(store_->ContextOffset(step.node, rr), d, -a * f,
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
    SUPA_TRACE_SPAN_CAT("negative", "model");
    SUPA_PERF_SCOPE(kNegative);
    const size_t n = static_cast<size_t>(config_.num_neg);
    auto add_negatives = [&](size_t base, UpdateContext& origin) {
      for (size_t j = 0; j < n; ++j) {
        const NodeId neg = plan.negatives[base + j];
        if (neg == kInvalidNode) continue;
        const float* c = store_->Context(neg, r_ctx);
        const double s = Dot(c, origin.h_star.data(), d);
        stats.loss_neg += -LogSigmoid(-s);
        const double p = Sigmoid(s);  // dL/ds
        grads.Accumulate(store_->ContextOffset(neg, r_ctx), d, p,
                         origin.h_star.data());
        Axpy(p, c, origin.grad_h_star.data(), d);
      }
    };
    add_negatives(0, ctx_u);
    add_negatives(n, ctx_v);
  }

  {
    SUPA_TRACE_SPAN_CAT("optimize", "model");
    SUPA_PERF_SCOPE(kOptimize);
    BackpropUpdater(ctx_u, grads, sink);
    BackpropUpdater(ctx_v, grads, sink);
  }
  return stats;
}

Result<TrainStats> SupaModel::TrainEdge(const TemporalEdge& e,
                                        const TrainOptions& options) {
  SUPA_TRACE_SPAN_CAT("train_edge", "model");
  SUPA_PERF_SCOPE(kTrainEdge);
  SUPA_RETURN_NOT_OK(
      PlanEdge(e, options, /*want_footprint=*/false, &serial_plan_));

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

  // Serial sink: dirty rows and α gradients flow straight into the
  // optimizer, exactly as before the plan/execute split.
  const MathSink sink;
  const TrainStats stats = RunEdgeMath(serial_plan_, &serial_scratch_, sink);
  auto& monitor = obs::ModelMonitor::Global();
  const bool monitored = monitor.enabled();
  SparseAdam::StepStats step_stats;
  {
    SUPA_TRACE_SPAN_CAT("optimize", "model");
    SUPA_PERF_SCOPE(kOptimize);
    adam_->Step(serial_scratch_.grads, store_->data(),
                monitored ? &step_stats : nullptr);
  }
  RecordStepWrites(e, serial_scratch_.grads, &lease);
  lease.DeclareComplete();
  if (monitored) {
    monitor.RecordTrainStep(stats.loss_inter, stats.loss_prop,
                            stats.loss_neg,
                            GradBufferL2(serial_scratch_.grads),
                            std::sqrt(step_stats.sum_update_sq),
                            std::sqrt(step_stats.sum_param_sq_before),
                            std::sqrt(step_stats.sum_param_sq_after));
  }
  return stats;
}

void SupaModel::RecordStepWrites(const TemporalEdge& e,
                                 const GradBuffer& grads,
                                 store::ShardWriteLease* lease) const {
  grads.ForEach([lease](size_t offset, const float*, size_t) {
    lease->RecordRow(offset);
  });
  if (config_.use_short_term && config_.use_update_decay) {
    lease->RecordRow(store_->ShortMemOffset(e.src));
    lease->RecordRow(store_->ShortMemOffset(e.dst));
  }
}

void SupaModel::ExecutePlan(EdgePlan* plan, ExecScratch* scratch) {
  plan->dirty.clear();
  plan->alpha_grads.clear();
  MathSink sink;
  sink.dirty = &plan->dirty;
  sink.alpha = &plan->alpha_grads;
  plan->stats = RunEdgeMath(*plan, scratch, sink);
  // Row updates land now, at the plan's pinned step; α and the dirty merge
  // wait for CommitPlan. Per-row Adam math depends only on the step number
  // and the row's own state, so disjoint-row plans commute bit-exactly.
  plan->mon_sampled = obs::ModelMonitor::Global().enabled();
  SparseAdam::StepStats step_stats;
  adam_->StepAt(plan->step, scratch->grads, store_->data(), &plan->dirty,
                plan->mon_sampled ? &step_stats : nullptr);
  if (plan->mon_sampled) {
    // Banked for CommitPlan: the monitor's mutex stays off the worker.
    plan->mon_grad_norm = GradBufferL2(scratch->grads);
    plan->mon_step_norm = std::sqrt(step_stats.sum_update_sq);
    plan->mon_row_norm_before = std::sqrt(step_stats.sum_param_sq_before);
    plan->mon_row_norm_after = std::sqrt(step_stats.sum_param_sq_after);
  }
}

void SupaModel::CommitPlan(const EdgePlan& plan) {
  for (const auto& [offset, len] : plan.dirty) {
    adam_->MarkDirty(offset, len);
  }
  for (const auto& [offset, grad] : plan.alpha_grads) {
    adam_->StepScalarAt(plan.step, offset, grad, store_->data());
  }
  adam_->set_step_count(plan.step);
  auto& monitor = obs::ModelMonitor::Global();
  if (plan.mon_sampled && monitor.enabled()) {
    monitor.RecordTrainStep(plan.stats.loss_inter, plan.stats.loss_prop,
                            plan.stats.loss_neg, plan.mon_grad_norm,
                            plan.mon_step_norm, plan.mon_row_norm_before,
                            plan.mon_row_norm_after);
  }
}

Status SupaModel::PlanEdgeDeferred(const TemporalEdge& e,
                                   const TrainOptions& options,
                                   EdgePlan* plan) {
  if (e.src >= graph_->num_nodes() || e.dst >= graph_->num_nodes()) {
    return Status::OutOfRange("train edge endpoint out of range");
  }
  if (e.src == e.dst) {
    return Status::InvalidArgument("self loop in training stream");
  }
  plan->edge = e;
  plan->options = options;
  plan->last_active_u = graph_->LastActive(e.src);
  plan->last_active_v = graph_->LastActive(e.dst);
  plan->u_walk_count = 0;
  plan->negatives.clear();
  plan->rows.clear();
  plan->shard_mask = 0;
  // Executors sample the table concurrently and must never mutate it, so
  // a pending rebuild happens here, on the dispatcher, before launch.
  if (config_.use_neg_loss && !neg_table_.built()) {
    SUPA_RETURN_NOT_OK(RebuildNegativeTable());
  }
  return Status::OK();
}

void SupaModel::ExecutePlanDeferred(EdgePlan* plan, ExecScratch* scratch) {
  plan->dirty.clear();
  plan->alpha_grads.clear();
  plan->grads.Clear();
  plan->gamma_u = 1.0;
  plan->gamma_v = 1.0;
  const TemporalEdge& e = plan->edge;
  // Counter-based stream: one private RNG keyed by (seed, step), so the
  // draws depend only on the edge's arrival index — never on the writer
  // count or the execution interleaving.
  Rng rng(0x9E3779B97F4A7C15ULL * (plan->step + 1) ^
          (static_cast<uint64_t>(config_.seed) + 0x632BE59BD9B4E019ULL));
  if (config_.use_prop_loss) {
    SUPA_TRACE_SPAN_CAT("sample", "model");
    SUPA_PERF_SCOPE(kSample);
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
  MathSink sink;
  sink.dirty = &plan->dirty;
  sink.grads = &plan->grads;
  sink.gamma_u = &plan->gamma_u;
  sink.gamma_v = &plan->gamma_v;
  // α rides in `grads` as a scalar row (sink.alpha stays null) — the
  // commit-time Step applies it exactly like the serial trainer.
  plan->stats = RunEdgeMath(*plan, scratch, sink);
}

void SupaModel::CommitPlanDeferred(const EdgePlan& plan,
                                   store::ShardWriteLease* lease) {
  SUPA_TRACE_SPAN_CAT("optimize", "model");
  SUPA_PERF_SCOPE(kOptimize);
  const size_t d = static_cast<size_t>(config_.dim);
  if (config_.use_short_term && config_.use_update_decay) {
    // The banked forgetting scales the *live* rows — layered on top of
    // any earlier in-group commits to the same endpoints.
    Scale(plan.gamma_u, store_->ShortMem(plan.edge.src), d);
    Scale(plan.gamma_v, store_->ShortMem(plan.edge.dst), d);
  }
  for (const auto& [offset, len] : plan.dirty) {
    adam_->MarkDirty(offset, len);
  }
  auto& monitor = obs::ModelMonitor::Global();
  const bool monitored = monitor.enabled();
  SparseAdam::StepStats step_stats;
  adam_->Step(plan.grads, store_->data(), monitored ? &step_stats : nullptr);
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
  SUPA_RETURN_NOT_OK(graph_->RemoveEdge(u, v, r));
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
  SUPA_RETURN_NOT_OK(graph_->RemoveEdge(u, v, r));
  degrees_[u] = std::max(0.0, degrees_[u] - 1.0);
  degrees_[v] = std::max(0.0, degrees_[v] - 1.0);
  return Status::OK();
}

double SupaModel::Score(NodeId u, NodeId v, EdgeTypeId r) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  return simd::ScoreDot(store_->LongMem(u), store_->ShortMem(u),
                        store_->Context(u, rr), store_->LongMem(v),
                        store_->ShortMem(v), store_->Context(v, rr), short_w,
                        d);
}

void SupaModel::FinalEmbedding(NodeId v, EdgeTypeId r, float* out) const {
  const size_t d = static_cast<size_t>(config_.dim);
  const EdgeTypeId rr = CtxRel(r);
  const double short_w = config_.use_short_term ? 1.0 : 0.0;
  simd::CombineHalf(store_->LongMem(v), store_->ShortMem(v),
                    store_->Context(v, rr), short_w, out, d);
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
  SUPA_TRACE_SPAN_CAT("snapshot/full_take", "snapshot");
  SUPA_PERF_SCOPE(kSnapshotTake);
  SnapshotMetrics::Get().full_takes.Increment();
  return Snapshot{store_->Snapshot(), adam_->Snapshot()};
}

void SupaModel::RestoreSnapshot(const Snapshot& snapshot) {
  SUPA_TRACE_SPAN_CAT("snapshot/full_restore", "snapshot");
  SUPA_PERF_SCOPE(kSnapshotRestore);
  SnapshotMetrics::Get().full_restores.Increment();
  store::ShardWriteLease lease = graph_store_->LeaseAll();
  store_->Restore(snapshot.params);
  adam_->Restore(snapshot.adam);
  // The whole buffer changed; dirty tracking no longer describes the
  // distance to the old baseline.
  InvalidateDeltaBaseline();
}

void SupaModel::InvalidateDeltaBaseline() {
  delta_baseline_.reset();
  adam_->ClearDirty();
}

SupaModel::DeltaSnapshot SupaModel::TakeDeltaSnapshot() {
  SUPA_TRACE_SPAN_CAT("snapshot/delta_take", "snapshot");
  SUPA_PERF_SCOPE(kSnapshotTake);
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  metrics.delta_takes.Increment();
  if (delta_baseline_ == nullptr ||
      static_cast<double>(adam_->dirty_rows().num_floats()) >
          kRebaseDirtyFraction * static_cast<double>(store_->size())) {
    // (Re-)establish the baseline: one full copy, after which snapshots
    // and restores are O(dirty) until the dirty set grows too large again.
    metrics.rebases.Increment();
    delta_baseline_ = std::make_shared<const Snapshot>(TakeSnapshot());
    adam_->ClearDirty();
  }

  const DirtyRowSet& dirty = adam_->dirty_rows();
  metrics.dirty_rows.Observe(static_cast<double>(dirty.num_rows()));
  DeltaSnapshot snap;
  snap.baseline = delta_baseline_;
  snap.adam_step = adam_->step_count();
  snap.offsets.reserve(dirty.num_rows());
  snap.lens.reserve(dirty.num_rows());
  snap.params.reserve(dirty.num_floats());
  snap.m.reserve(dirty.num_floats());
  snap.v.reserve(dirty.num_floats());
  const float* params = store_->data();
  const float* m = adam_->m_data();
  const float* v = adam_->v_data();
  dirty.ForEach([&](size_t offset, uint32_t len) {
    snap.offsets.push_back(offset);
    snap.lens.push_back(len);
    snap.params.insert(snap.params.end(), params + offset,
                       params + offset + len);
    snap.m.insert(snap.m.end(), m + offset, m + offset + len);
    snap.v.insert(snap.v.end(), v + offset, v + offset + len);
  });
#ifndef NDEBUG
  snap.debug_full = TakeSnapshot();
#endif
  return snap;
}

void SupaModel::RestoreDeltaSnapshot(const DeltaSnapshot& snapshot) {
  assert(snapshot.baseline != nullptr &&
         "RestoreDeltaSnapshot needs a snapshot from TakeDeltaSnapshot");
  SUPA_TRACE_SPAN_CAT("snapshot/delta_restore", "snapshot");
  SUPA_PERF_SCOPE(kSnapshotRestore);
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  store::ShardWriteLease lease = graph_store_->LeaseAll();
  float* params = store_->data();
  float* m = adam_->m_data();
  float* v = adam_->v_data();
  // Baseline identity (not an id/epoch counter) gates the fast path: both
  // shared_ptrs pin their object, so pointer equality here can never alias
  // a freed-and-recycled baseline.
  if (delta_baseline_ != nullptr && snapshot.baseline == delta_baseline_) {
    // Fast path: revert every row dirty since the shared baseline, then
    // re-apply the snapshot's rows below — O(dirty) total.
    metrics.delta_restores.Increment();
    const Snapshot& base = *delta_baseline_;
    adam_->dirty_rows().ForEach([&](size_t offset, uint32_t len) {
      std::memcpy(params + offset, base.params.data() + offset,
                  len * sizeof(float));
      std::memcpy(m + offset, base.adam.m.data() + offset,
                  len * sizeof(float));
      std::memcpy(v + offset, base.adam.v.data() + offset,
                  len * sizeof(float));
    });
  } else {
    // Full-copy fallback: the model was re-based or fully restored since
    // this snapshot was taken, so its baseline (kept alive by the shared
    // handle) is copied wholesale and adopted as the live baseline.
    metrics.fallback_restores.Increment();
    const Snapshot& base = *snapshot.baseline;
    std::memcpy(params, base.params.data(),
                base.params.size() * sizeof(float));
    std::memcpy(m, base.adam.m.data(), base.adam.m.size() * sizeof(float));
    std::memcpy(v, base.adam.v.data(), base.adam.v.size() * sizeof(float));
    delta_baseline_ = snapshot.baseline;
    // Whole-buffer rewrite outside SparseAdam::Restore: checkpoint dirty
    // tracking cannot bound the change, so the next durable link must be
    // a full base.
    adam_->MarkAllCheckpointDirty();
  }

  size_t pos = 0;
  for (size_t i = 0; i < snapshot.offsets.size(); ++i) {
    const size_t offset = snapshot.offsets[i];
    const size_t len = snapshot.lens[i];
    std::memcpy(params + offset, snapshot.params.data() + pos,
                len * sizeof(float));
    std::memcpy(m + offset, snapshot.m.data() + pos, len * sizeof(float));
    std::memcpy(v + offset, snapshot.v.data() + pos, len * sizeof(float));
    pos += len;
  }
  adam_->set_step_count(snapshot.adam_step);

  // The live state now differs from the baseline exactly on the
  // snapshot's rows.
  adam_->ClearDirty();
  for (size_t i = 0; i < snapshot.offsets.size(); ++i) {
    adam_->MarkDirty(snapshot.offsets[i], snapshot.lens[i]);
  }

#ifndef NDEBUG
  // Determinism contract: the delta path must reproduce a full restore
  // bit-for-bit.
  if (!snapshot.debug_full.params.empty()) {
    assert(store_->Snapshot() == snapshot.debug_full.params);
    const SparseAdam::State state = adam_->Snapshot();
    assert(state.m == snapshot.debug_full.adam.m);
    assert(state.v == snapshot.debug_full.adam.v);
    assert(state.step == snapshot.debug_full.adam.step);
  }
#endif
}

}  // namespace supa
