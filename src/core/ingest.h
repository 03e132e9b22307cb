// Multi-writer ingest pipeline (DESIGN.md §13): parallel sampling and
// gradient math behind a serial planner and a deterministic,
// arrival-order commit protocol.
//
// Plan / execute / commit, one group of consecutive edges at a time:
//
//   * The *dispatcher* (the thread calling TrainSpan) plans up to
//     max_group_edges edges in arrival order, pinning each edge's
//     optimizer step number.
//   * Writer tasks on the shared thread pool execute the plans: each
//     draws its walks and negatives from a private counter-based RNG
//     keyed by (seed, step) and computes the edge's full gradient against
//     the frozen group-start embeddings. Executors only read, so no lease
//     is held while they run.
//   * When the group's math has drained, the dispatcher takes the store
//     lease and commits each plan in arrival order with the ordinary
//     optimizer step.
//
// Results are deterministic and independent of the writer count —
// grouping and the per-step RNG depend only on the edge sequence — but
// they are a different byte stream from the serial trainer's, in two
// documented ways: the per-step RNG streams replace the serial draw
// order, and edges sharing rows within one group compute gradients
// against group-start values (stale reads, surfaced as
// ingest.conflict_serializations; the arrival-order commit means no
// update is ever lost).
//
// The dispatcher observes edges only while no group executes: ObserveEdge
// mutates the graph adjacency and periodically rebuilds the negative
// table, which executors read while sampling, so observing strictly
// between groups keeps those reads race-free and the sampled graph state
// independent of the writer count.

#ifndef SUPA_CORE_INGEST_H_
#define SUPA_CORE_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/model.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/statusz.h"
#include "util/status.h"

namespace supa {

struct IngestOptions {
  /// Concurrent executor tasks per group (>= 1).
  size_t writers = 1;
  /// Group-size cap. Writer-count-independent on purpose: grouping (and
  /// therefore every result) depends only on the edge sequence, so the
  /// output is identical at 2 or 8 writers.
  size_t max_group_edges = 32;
};

/// Drives a span of training edges through the plan/execute/commit
/// pipeline. One instance per training run; reusable across spans. Not
/// thread-safe — TrainSpan runs on one dispatcher thread at a time.
class IngestPipeline {
 public:
  IngestPipeline(SupaModel& model, IngestOptions options);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Trains edges [begin, end) of `edges`, the pipeline's counterpart of
  /// the serial loop
  ///   for i: TrainEdge(edges[i]); if (observe_edges) ObserveEdge(edges[i]);
  /// `on_edge` runs on the dispatcher once per committed edge, in arrival
  /// order. Wall time spent inside ObserveEdge is added to
  /// *observe_seconds, the rest of the span to *train_seconds.
  Status TrainSpan(const std::vector<TemporalEdge>& edges, size_t begin,
                   size_t end, bool observe_edges,
                   const std::function<void(const TrainStats&)>& on_edge,
                   double* train_seconds, double* observe_seconds);

 private:
  /// Plans the next group: up to max_group_edges edges from the span,
  /// observing each right after its plan when `observe_edges`. Stops
  /// early on an error.
  void FormGroup(const std::vector<TemporalEdge>& edges, bool observe_edges,
                 double* observe_seconds);

  /// Fans the group's plans out to the shared thread pool.
  void Launch();

  /// Executes unclaimed plans of the group on the calling thread,
  /// charging them to writer slot `slot`, until none are left.
  void ExecuteClaimed(size_t slot);

  /// Waits until every plan in the group has executed, stealing remaining
  /// plans onto the dispatcher instead of idling (slot options_.writers).
  void WaitExecuted();

  /// Takes the store lease (non-blocking first, counting shard
  /// contention, then blocking, timing the wait into
  /// ingest.lease_wait_us), commits the group's plans in arrival order,
  /// runs callbacks, and counts stale-read overlaps between the plans'
  /// gradient row sets.
  void Commit(const std::function<void(const TrainStats&)>& on_edge);

  /// Adds one execute loop's accumulated perf delta to writer slot `w`'s
  /// atomics (no-op for an all-zero delta — profiling off).
  void FoldWriterPerf(size_t w, const obs::PerfDelta& delta);

  std::vector<obs::StatusItem> StatusItems() const;

  SupaModel& model_;
  const IngestOptions options_;

  // The group in flight.
  std::vector<EdgePlan> plans_;  // size = max_group_edges; [0, count_) live
  size_t count_ = 0;
  std::atomic<size_t> next_plan_{0};
  std::atomic<size_t> pending_tasks_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_

  std::vector<SupaModel::ExecScratch> scratches_;  // one per writer
  /// Commit-time row set: gradient rows committed so far in the current
  /// group, probed to count stale-read overlaps.
  RowIndex footprint_;

  // Span-scoped dispatcher state.
  size_t next_edge_ = 0;
  size_t span_end_ = 0;
  uint64_t next_step_ = 0;
  Status error_;

  // Observability.
  obs::Counter planned_counter_;
  obs::Counter executed_counter_;
  obs::Counter groups_counter_;
  obs::Counter conflict_counter_;
  obs::Histogram lease_wait_hist_;
  obs::Histogram group_edges_hist_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_executed_;
  /// Per-writer hardware cost (cycles / LLC misses / thread CPU ns) from
  /// the execute-stage perf scopes, folded in once per drained group so
  /// the scrape-side reads are plain atomics. Slot options_.writers is
  /// the dispatcher's work-stealing share, like writer_executed_.
  std::unique_ptr<std::atomic<uint64_t>[]> writer_cycles_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_llc_misses_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_task_clock_ns_;
  std::atomic<uint64_t> committed_{0};
  std::optional<obs::StatusScope> status_scope_;
};

}  // namespace supa

#endif  // SUPA_CORE_INGEST_H_
