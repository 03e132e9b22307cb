#include "core/ingest.h"

#include <algorithm>
#include <string>

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
      plans_(options_.max_group_edges) {
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
  items.push_back({"writers", std::to_string(options_.writers)});
  items.push_back({"group_cap", std::to_string(options_.max_group_edges)});
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

void IngestPipeline::FormGroup(const std::vector<TemporalEdge>& edges,
                               bool observe_edges, double* observe_seconds) {
  count_ = 0;
  if (!error_.ok()) return;
  SUPA_TRACE_SPAN_CAT("ingest/form_group", "ingest");
  SUPA_PERF_SCOPE(kIngestPlan);
  while (count_ < plans_.size() && next_edge_ < span_end_) {
    EdgePlan& slot = plans_[count_];
    const TemporalEdge& e = edges[next_edge_];
    const Status st = model_.PlanEdge(e, TrainOptions{}, &slot);
    if (!st.ok()) {
      error_ = st;
      return;
    }
    slot.step = ++next_step_;
    planned_counter_.Increment();
    ++next_edge_;
    ++count_;
    if (observe_edges) {
      // Observing right after the plan banks edge i's pre-observation
      // timestamps before observe(i) mutates the graph, and plan(i+1) sees
      // edge i inserted — like the serial train-then-observe loop. The
      // executors sample later, against the post-observe graph of the whole
      // group, which depends only on the edge sequence.
      StopwatchGuard guard(observe_seconds);
      const Status ost = model_.ObserveEdge(e);
      if (!ost.ok()) {
        error_ = ost;  // e still trains, like serial
        return;        // drain what was planned
      }
    }
  }
}

void IngestPipeline::Launch() {
  next_plan_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    done_ = false;
  }
  const size_t tasks = std::min(options_.writers, count_);
  pending_tasks_.store(tasks, std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t w = 0; w < tasks; ++w) {
    pool.Submit([this, w] {
      ExecuteClaimed(w);
      if (pending_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(mu_);
        done_ = true;
        cv_.notify_one();
      }
    });
  }
}

void IngestPipeline::ExecuteClaimed(size_t slot) {
  SupaModel::ExecScratch& scratch = scratches_[slot];
  obs::PerfDelta perf;
  size_t i;
  while ((i = next_plan_.fetch_add(1, std::memory_order_relaxed)) <
         count_) {
    SUPA_PERF_SCOPE_OUT(kIngestExecute, &perf);
    model_.ExecutePlan(&plans_[i], &scratch);
    executed_counter_.Increment();
    writer_executed_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  FoldWriterPerf(slot, perf);
}

void IngestPipeline::WaitExecuted() {
  SUPA_TRACE_SPAN_CAT("ingest/wait", "ingest");
  // Work-stealing wait: once planning is done the dispatcher has nothing
  // left to do, so it drains the group's remaining plans itself instead
  // of blocking. On saturated or single-core hosts this keeps the
  // pipeline's cost near the serial loop's (no idle blocking while a
  // queued task waits for a core); on idle multi-core hosts the workers
  // usually empty the counter first and this loop exits immediately.
  ExecuteClaimed(options_.writers);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return done_; });
}

void IngestPipeline::Commit(
    const std::function<void(const TrainStats&)>& on_edge) {
  SUPA_TRACE_SPAN_CAT("ingest/commit", "ingest");
  SUPA_PERF_SCOPE(kIngestCommit);
  store::GraphStore& store = model_.graph_store();
  const uint64_t mask = store.all_shards_mask();
  store::ShardWriteLease lease;
  Timer wait;
  if (!store.TryLeaseMask(mask, &lease)) {
    SUPA_TRACE_SPAN_CAT("ingest/lease_wait", "ingest");
    lease = store.LeaseMask(mask);
  }
  lease_wait_hist_.Observe(wait.ElapsedSeconds() * 1e6);

  footprint_.Clear();
  for (size_t i = 0; i < count_; ++i) {
    // Divergence diagnostic: an edge whose gradient rows overlap an
    // earlier same-group edge computed against group-start values that
    // the earlier commit has since changed. Deterministic (depends only
    // on the edge sequence and group boundaries), surfaced as
    // ingest.conflict_serializations.
    bool stale = false;
    plans_[i].grads.ForEach([&](size_t offset, const float*, uint32_t len) {
      bool inserted = false;
      footprint_.FindOrInsert(offset, len, &inserted);
      if (!inserted) stale = true;
    });
    if (stale) conflict_counter_.Increment();
    model_.CommitPlan(plans_[i], &lease);
    committed_.fetch_add(1, std::memory_order_relaxed);
    if (on_edge) on_edge(plans_[i].stats);
  }
  // CommitPlan records every row it writes.
  lease.DeclareComplete();
  lease.Release();
  groups_counter_.Increment();
  group_edges_hist_.Observe(static_cast<double>(count_));
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

  for (FormGroup(edges, observe_edges, &observe_acc); count_ > 0;
       FormGroup(edges, observe_edges, &observe_acc)) {
    Launch();
    WaitExecuted();
    Commit(on_edge);
  }

  if (observe_seconds != nullptr) *observe_seconds += observe_acc;
  if (train_seconds != nullptr) {
    *train_seconds += span_timer.ElapsedSeconds() - observe_acc;
  }
  return error_;
}

}  // namespace supa
