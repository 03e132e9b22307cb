#include "core/ingest.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace supa {

IngestPipeline::IngestPipeline(SupaModel& model, IngestOptions options)
    : model_(model),
      options_([&options] {
        IngestOptions o = options;
        if (o.writers == 0) o.writers = 1;
        if (o.max_group_edges == 0) o.max_group_edges = 1;
        return o;
      }()),
      group_cap_(options_.mode == IngestMode::kStrict
                     ? 1
                     : options_.max_group_edges) {
  for (Group& g : groups_) g.plans.resize(group_cap_);
  // One scratch per writer plus one for the dispatcher's work-stealing
  // wait (index options_.writers).
  scratches_.resize(options_.writers + 1);
  // Value-initialized arrays: all per-writer counts start at zero.
  writer_executed_ =
      std::make_unique<std::atomic<uint64_t>[]>(options_.writers + 1);
  writer_cycles_ =
      std::make_unique<std::atomic<uint64_t>[]>(options_.writers + 1);
  writer_llc_misses_ =
      std::make_unique<std::atomic<uint64_t>[]>(options_.writers + 1);
  writer_task_clock_ns_ =
      std::make_unique<std::atomic<uint64_t>[]>(options_.writers + 1);

  auto& reg = obs::MetricsRegistry::Global();
  planned_counter_ = reg.GetCounter("ingest.planned_edges");
  executed_counter_ = reg.GetCounter("ingest.executed_edges");
  groups_counter_ = reg.GetCounter("ingest.groups");
  conflict_counter_ = reg.GetCounter("ingest.conflict_serializations");
  lease_wait_hist_ = reg.GetHistogram(
      "ingest.lease_wait_us",
      obs::MetricsRegistry::ExponentialBounds(1.0, 4.0, 12));
  group_edges_hist_ = reg.GetHistogram(
      "ingest.group_edges",
      obs::MetricsRegistry::ExponentialBounds(1.0, 2.0, 8));
  status_scope_.emplace("ingest", [this] { return StatusItems(); });
}

IngestPipeline::~IngestPipeline() = default;

std::vector<obs::StatusItem> IngestPipeline::StatusItems() const {
  std::vector<obs::StatusItem> items;
  items.push_back(
      {"mode", options_.mode == IngestMode::kStrict ? "strict" : "fast"});
  items.push_back({"writers", std::to_string(options_.writers)});
  items.push_back({"group_cap", std::to_string(group_cap_)});
  items.push_back(
      {"committed_edges",
       std::to_string(committed_.load(std::memory_order_relaxed))});
  // Per-writer hardware cost rows appear once profiling has recorded
  // something (task-clock is nonzero on every tier of the ladder).
  const bool have_perf =
      writer_task_clock_ns_[0].load(std::memory_order_relaxed) != 0 ||
      writer_task_clock_ns_[options_.writers].load(
          std::memory_order_relaxed) != 0;
  auto writer_rows = [&](const std::string& label, size_t w) {
    items.push_back(
        {label + "_executed",
         std::to_string(writer_executed_[w].load(std::memory_order_relaxed))});
    if (!have_perf) return;
    items.push_back(
        {label + "_cycles",
         std::to_string(writer_cycles_[w].load(std::memory_order_relaxed))});
    items.push_back({label + "_llc_misses",
                     std::to_string(writer_llc_misses_[w].load(
                         std::memory_order_relaxed))});
    items.push_back({label + "_cpu_ms",
                     std::to_string(writer_task_clock_ns_[w].load(
                                        std::memory_order_relaxed) /
                                    1000000)});
  };
  for (size_t w = 0; w < options_.writers; ++w) {
    writer_rows("writer_" + std::to_string(w), w);
  }
  writer_rows("dispatcher", options_.writers);
  return items;
}

void IngestPipeline::FoldWriterPerf(size_t w, const obs::PerfDelta& delta) {
  if (delta.task_clock_ns == 0 && delta.cycles == 0) return;
  writer_cycles_[w].fetch_add(delta.cycles, std::memory_order_relaxed);
  writer_llc_misses_[w].fetch_add(delta.llc_misses,
                                  std::memory_order_relaxed);
  writer_task_clock_ns_[w].fetch_add(delta.task_clock_ns,
                                     std::memory_order_relaxed);
}

void IngestPipeline::FormGroup(Group* g, const std::vector<TemporalEdge>& edges,
                               bool observe_edges, double* observe_seconds) {
  g->count = 0;
  // Both modes commit under the whole-store lease; kStrict additionally
  // holds it across execution (Launch).
  g->mask = model_.graph_store().all_shards_mask();
  if (!error_.ok()) return;
  SUPA_TRACE_SPAN_CAT("ingest/form_group", "ingest");
  SUPA_PERF_SCOPE(kIngestPlan);
  const bool deferred = options_.mode == IngestMode::kFast;

  while (g->count < group_cap_) {
    EdgePlan& slot = g->plans[g->count];
    if (next_edge_ >= span_end_) break;
    const TemporalEdge& e = edges[next_edge_];
    // kStrict banks the full serial RNG draw (walks, negatives) here, in
    // arrival order; kFast defers sampling to the executor's per-step
    // stream and only banks the pre-observation graph reads.
    const Status st =
        deferred ? model_.PlanEdgeDeferred(e, TrainOptions{}, &slot)
                 : model_.PlanEdge(e, TrainOptions{}, /*want_footprint=*/false,
                                   &slot);
    if (!st.ok()) {
      error_ = st;
      return;
    }
    slot.step = ++next_step_;
    planned_counter_.Increment();
    ++next_edge_;
    if (observe_edges) {
      // Observation right after the plan keeps the serial graph/RNG
      // order: plan(i) draws before observe(i) mutates the graph, and
      // plan(i+1) sees edge i inserted — exactly like the serial
      // train-then-observe loop, since the math never reads the graph.
      // (kFast samples at execute time instead, but observing iterations
      // never overlap execution — see TrainSpan — so every executor
      // still samples the same post-observe graph state regardless of
      // writer count.)
      StopwatchGuard guard(observe_seconds);
      const Status ost = model_.ObserveEdge(e);
      if (!ost.ok()) error_ = ost;  // e still trains, like serial
    }
    ++g->count;
    if (!error_.ok()) break;  // observe failed; drain what was planned
  }
}

void IngestPipeline::AcquireCommitLease(Group* g) {
  store::GraphStore& store = model_.graph_store();
  Timer wait;
  if (!store.TryLeaseMask(g->mask, &g->lease)) {
    SUPA_TRACE_SPAN_CAT("ingest/lease_wait", "ingest");
    g->lease = store.LeaseMask(g->mask);
  }
  lease_wait_hist_.Observe(wait.ElapsedSeconds() * 1e6);
}

void IngestPipeline::Launch(Group* g) {
  const bool deferred = options_.mode == IngestMode::kFast;
  // kStrict executors write rows (StepAt), so the store lease spans the
  // whole execute window. kFast executors only *read* embeddings — all
  // writes wait for Commit — so the lease is taken there instead and
  // snapshot publishes can interleave with execution.
  if (!deferred) AcquireCommitLease(g);

  g->next_plan.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(g->mu);
    g->done = false;
  }
  const size_t tasks = std::min(options_.writers, g->count);
  g->pending_tasks.store(tasks, std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t w = 0; w < tasks; ++w) {
    pool.Submit([this, g, w, deferred] {
      SupaModel::ExecScratch& scratch = scratches_[w];
      obs::PerfDelta perf;
      size_t i;
      while ((i = g->next_plan.fetch_add(1, std::memory_order_relaxed)) <
             g->count) {
        SUPA_PERF_SCOPE_OUT(kIngestExecute, &perf);
        if (deferred) {
          model_.ExecutePlanDeferred(&g->plans[i], &scratch);
        } else {
          model_.ExecutePlan(&g->plans[i], &scratch);
        }
        executed_counter_.Increment();
        writer_executed_[w].fetch_add(1, std::memory_order_relaxed);
      }
      FoldWriterPerf(w, perf);
      if (g->pending_tasks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(g->mu);
        g->done = true;
        g->cv.notify_one();
      }
    });
  }
}

void IngestPipeline::WaitExecuted(Group* g) {
  SUPA_TRACE_SPAN_CAT("ingest/wait", "ingest");
  // Work-stealing wait: once planning is done the dispatcher has nothing
  // left to do, so it drains the group's remaining plans itself instead
  // of blocking. On saturated or single-core hosts this keeps the
  // pipeline's cost near the serial loop's (no idle blocking while a
  // queued task waits for a core); on idle multi-core hosts the workers
  // usually empty the counter first and this loop exits immediately.
  const bool deferred = options_.mode == IngestMode::kFast;
  SupaModel::ExecScratch& scratch = scratches_[options_.writers];
  obs::PerfDelta perf;
  size_t i;
  while ((i = g->next_plan.fetch_add(1, std::memory_order_relaxed)) <
         g->count) {
    SUPA_PERF_SCOPE_OUT(kIngestExecute, &perf);
    if (deferred) {
      model_.ExecutePlanDeferred(&g->plans[i], &scratch);
    } else {
      model_.ExecutePlan(&g->plans[i], &scratch);
    }
    executed_counter_.Increment();
    writer_executed_[options_.writers].fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  FoldWriterPerf(options_.writers, perf);
  std::unique_lock<std::mutex> lk(g->mu);
  g->cv.wait(lk, [g] { return g->done; });
}

void IngestPipeline::Commit(
    Group* g, const std::function<void(const TrainStats&)>& on_edge) {
  SUPA_TRACE_SPAN_CAT("ingest/commit", "ingest");
  SUPA_PERF_SCOPE(kIngestCommit);
  const bool deferred = options_.mode == IngestMode::kFast;
  if (deferred) {
    AcquireCommitLease(g);
    footprint_.Clear();
  }
  for (size_t i = 0; i < g->count; ++i) {
    if (deferred) {
      // Divergence diagnostic: an edge whose gradient rows overlap an
      // earlier same-group edge computed against group-start values that
      // the earlier commit has since changed. Deterministic (depends only
      // on the edge sequence and group boundaries), surfaced as
      // ingest.conflict_serializations.
      bool stale = false;
      g->plans[i].grads.ForEach([&](size_t offset, const float*,
                                    uint32_t len) {
        bool inserted = false;
        footprint_.FindOrInsert(offset, len, &inserted);
        if (!inserted) stale = true;
      });
      if (stale) conflict_counter_.Increment();
      model_.CommitPlanDeferred(g->plans[i], &g->lease);
    } else {
      model_.CommitPlan(g->plans[i]);
    }
    committed_.fetch_add(1, std::memory_order_relaxed);
    if (on_edge) on_edge(g->plans[i].stats);
  }
  // kFast commits record every row they write; kStrict's executors write
  // unrecorded, so its lease stays undeclared (all-changed).
  if (deferred) g->lease.DeclareComplete();
  g->lease.Release();
  groups_counter_.Increment();
  group_edges_hist_.Observe(static_cast<double>(g->count));
}

Status IngestPipeline::TrainSpan(
    const std::vector<TemporalEdge>& edges, size_t begin, size_t end,
    bool observe_edges, const std::function<void(const TrainStats&)>& on_edge,
    double* train_seconds, double* observe_seconds) {
  if (end > edges.size() || begin > end) {
    return Status::OutOfRange("bad ingest span");
  }
  SUPA_TRACE_SPAN_CAT("ingest/span", "ingest");
  Timer span_timer;
  double observe_acc = 0.0;
  next_edge_ = begin;
  span_end_ = end;
  next_step_ = model_.optimizer_step_count();
  error_ = Status::OK();

  Group* cur = &groups_[0];
  Group* nxt = &groups_[1];
  FormGroup(cur, edges, observe_edges, &observe_acc);
  while (cur->count > 0) {
    Launch(cur);
    // Overlap: plan the next group while this one's math executes — but
    // only when not observing, because ObserveEdge leases endpoint shards
    // and the dispatcher is currently holding the group lease (a
    // self-deadlock on a std::mutex).
    if (!observe_edges) FormGroup(nxt, edges, observe_edges, &observe_acc);
    WaitExecuted(cur);
    Commit(cur, on_edge);
    if (observe_edges) FormGroup(nxt, edges, observe_edges, &observe_acc);
    std::swap(cur, nxt);
  }

  if (observe_seconds != nullptr) *observe_seconds += observe_acc;
  if (train_seconds != nullptr) {
    *train_seconds += span_timer.ElapsedSeconds() - observe_acc;
  }
  return error_;
}

}  // namespace supa
