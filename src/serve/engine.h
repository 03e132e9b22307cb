// Online top-K recommendation serving over epoch snapshots.
//
// The engine is the request path promised by the storage engine's
// epoch-snapshot design (DESIGN.md §11/§12): worker threads score
// RecommendRequests against an immutable StoreSnapshot while the trainer
// keeps ingesting edges on its own thread — serving never takes a write
// lease, never touches the model's RNG streams, and therefore never
// perturbs training (checkpoint bytes are bit-identical with serving load
// on or off; pinned by serve_concurrent_test and the CI serving-smoke
// job).
//
// Request flow:
//
//   client -> Recommend() ---.                 .--> worker 0 (arena) --.
//   client -> Recommend() ----+-> bounded FIFO +--> worker 1 (arena) --+-> resp
//   client -> Recommend() ---'                 '--> worker W (arena) --'
//
//   * Admission is bounded (`max_queue`); an overloaded engine rejects
//     with ResourceExhausted instead of buffering unboundedly, so closed-
//     loop latency measurements stay meaningful.
//   * Each worker drains up to `max_batch` requests per wakeup and scores
//     the whole batch on one snapshot acquisition — request batching
//     amortizes both the queue mutex and the snapshot shared_ptr hop.
//   * Scoring reads a per-worker cache of item embeddings: h_v =
//     ½(h^L + h^S + c^r) rounded to float for every candidate, with an
//     upper bound on its norm and the three snapshot row pointers it was
//     built from. A request builds h_u the same way once, then makes one
//     pass over the candidates, a block of 8 at a time: the rows of a
//     block whose pointers in the batch snapshot differ from the cached
//     ones are rebuilt (simd::FloatH), then every item of the block gets
//     a float estimate ŝ (simd::FloatDots) with a proven bound
//     B ≥ |ŝ − s|, s being simd::ScoreDot's score. The pass keeps the k
//     best lower bounds ŝ − B and collects each eligible item whose upper
//     bound ŝ + B reaches the running k-th lower bound; only the collected
//     items that still reach the final one are scored, by simd::ScoreDot
//     over the snapshot rows.
//     Slabs are immutable and the cache pins the snapshot its pointers
//     came from, so an equal pointer means equal bytes; every returned
//     score is ScoreDot's, as in SupaModel::ScoreOn, and every item left
//     out has k items strictly above it. That is what lets
//     serve_topk_test demand *exact* rank agreement with a brute-force
//     reference (DESIGN.md §12.3).
//   * Each worker owns a ScoringArena (item cache, seen-set, top-K heap)
//     that is allocated once and reused forever — the WalkBuffer idiom;
//     steady-state serving does not allocate on the scoring path.
//
// Snapshot freshness: every batch serves the newest epoch. A worker
// acquires it when the batch starts; after the batch its item cache pins
// that epoch (and its slabs) until the worker's next request, so an idle
// worker pins the one epoch it last served. On a clean store the
// acquisition is a shared_ptr copy; under training it publishes an epoch,
// which copies the rows and node chunks written since the previous one
// while holding each changed shard's mutex (DESIGN.md §11.4, §12.2).
// Staleness is exported as the edge-count gap between the live store and
// the snapshot being served.

#ifndef SUPA_SERVE_ENGINE_H_
#define SUPA_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/model.h"
#include "data/dataset.h"
#include "eval/predictor.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "util/status.h"

namespace supa::serve {

struct ServeOptions {
  /// Scoring worker threads.
  size_t workers = 2;
  /// Max requests drained per worker wakeup (batch upper bound).
  size_t max_batch = 8;
  /// Admission bound; a full queue rejects with ResourceExhausted.
  size_t max_queue = 1024;
  /// K when a request leaves `k` as 0 (0 is taken as 1). Clipped to the
  /// candidate count.
  size_t default_k = 10;
  /// Remove items the user already interacted with under the query
  /// relation (read from the snapshot's adjacency).
  bool exclude_seen = true;
};

struct RecommendRequest {
  NodeId user = kInvalidNode;
  EdgeTypeId relation = 0;
  /// 0 = ServeOptions::default_k. Clipped to the candidate count.
  size_t k = 0;
};

struct RecommendResponse {
  /// Descending by score, ties broken by smaller node id (same pinned
  /// order as eval/predictor RecommendTopK).
  std::vector<ScoredItem> items;
  /// Store epoch of the snapshot that served this request.
  uint64_t snapshot_epoch = 0;
  /// Edges the live store had ingested beyond the serving snapshot at
  /// scoring time (freshness gap).
  uint64_t staleness_edges = 0;
  /// Wall time from admission to completion, microseconds.
  double latency_us = 0.0;
};

/// Per-worker reusable scoring scratch. The item cache is sized in
/// ServeEngine::Start; the other buffers grow to their high-water mark on
/// first use and are never shrunk — steady-state scoring performs no
/// allocation (mirrors core/sampler.h's WalkBuffer).
struct ScoringArena {
  /// The snapshot rows one cached h_v was built from.
  struct ItemRows {
    const float* long_mem = nullptr;
    const float* short_mem = nullptr;
    const float* context = nullptr;
    bool operator==(const ItemRows&) const = default;
  };

  /// An item that may still enter the top K: its candidate index and the
  /// upper bound ŝ + B of its score.
  struct Collected {
    size_t index = 0;
    double upper = 0.0;
  };

  /// Batch drained from the queue (slot pointers, see engine internals).
  std::vector<void*> batch;
  /// h_u of the request being scored, rounded to float (dim floats).
  std::vector<float> user_h;
  /// h_v of every candidate rounded to float, candidate-major
  /// (candidates × dim).
  std::vector<float> item_floats;
  /// An upper bound on the norm of each item_floats row and of the h_v
  /// it was rounded from (simd::FloatH), by candidate index.
  std::vector<float> item_norms;
  /// The rows each item_floats row was built from, by candidate index.
  std::vector<ItemRows> item_rows;
  /// The snapshot every item_rows pointer came from; keeps their slabs
  /// alive, so a pointer equal to one in a newer snapshot is the same
  /// immutable row.
  std::shared_ptr<const store::StoreSnapshot> item_snapshot;
  /// The context relation the cached rows were built under.
  EdgeTypeId item_relation = 0;
  /// Item ids the user already interacted with (sorted, deduplicated).
  std::vector<NodeId> seen;
  /// The k best lower bounds ŝ − B of the request (a min-heap).
  std::vector<double> lower_bounds;
  /// Items whose upper bound reached the running k-th lower bound.
  std::vector<Collected> collected;
  /// Fixed-capacity top-K min-heap of exact scores.
  std::vector<ScoredItem> heap;
  /// Draining-order scratch for emitting the heap in rank order.
  std::vector<ScoredItem> ranked;
  /// Returned scores as floats for the model monitor's serve-score
  /// sketch (capacity persists, so steady-state recording is
  /// allocation-free).
  std::vector<float> monitor_scores;
};

/// Concurrent top-K engine over one model's snapshots. The model and
/// dataset must outlive the engine; the model may be trained concurrently
/// (snapshot reads only — the engine never blocks or perturbs ingest).
class ServeEngine {
 public:
  ServeEngine(const SupaModel* model, const Dataset* data,
              ServeOptions options = ServeOptions{});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Spawns the worker pool. Must be called before Recommend.
  void Start();

  /// Drains the queue (in-flight requests complete; queued requests are
  /// rejected with Unavailable) and joins the workers. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Scores one request, blocking until a worker completes it. Thread-safe
  /// from any number of client threads. `resp->items` is reused across
  /// calls by clients that keep their response object alive.
  Status Recommend(const RecommendRequest& request, RecommendResponse* resp);

  /// Requests completed successfully since construction.
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Requests rejected at admission (queue full / not running).
  uint64_t requests_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Store epoch currently being served (0 before the first batch).
  uint64_t serving_epoch() const {
    return serving_epoch_.load(std::memory_order_relaxed);
  }

  const ServeOptions& options() const { return options_; }
  /// The fixed candidate set (target-type nodes of the dataset).
  const std::vector<NodeId>& candidates() const { return candidates_; }

 private:
  struct Slot;

  void WorkerLoop(size_t worker_index);
  /// Scores one admitted request on `snapshot` into its slot, bringing the
  /// arena's item cache up to `snapshot` on the way. Allocation-free after
  /// arena warmup.
  void ScoreRequest(
      const std::shared_ptr<const store::StoreSnapshot>& snapshot, Slot* slot,
      ScoringArena* arena);

  const SupaModel* model_;
  const Dataset* data_;
  ServeOptions options_;
  std::vector<NodeId> candidates_;

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> serving_epoch_{0};
  std::atomic<uint64_t> staleness_edges_{0};
  std::atomic<uint64_t> item_cache_bytes_{0};

  // FIFO of admitted-but-unscored slots, bounded by options_.max_queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;      // workers wait here
  std::condition_variable done_cv_;       // clients wait here
  std::vector<Slot*> queue_;              // ring buffer
  size_t queue_head_ = 0;
  size_t queue_size_ = 0;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<ScoringArena>> arenas_;

  // Metrics (registered once; hot path is lock-free increments).
  obs::Counter requests_counter_;
  obs::Counter rejected_counter_;
  obs::Counter batches_counter_;
  obs::Counter scored_candidates_counter_;
  obs::Counter item_refreshes_counter_;
  obs::Counter exact_scores_counter_;
  obs::Histogram latency_hist_;
  obs::Histogram batch_size_hist_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge staleness_gauge_;
  obs::Gauge epoch_gauge_;
  obs::Gauge item_cache_bytes_gauge_;
  std::optional<obs::StatusScope> status_scope_;
};

}  // namespace supa::serve

#endif  // SUPA_SERVE_ENGINE_H_
