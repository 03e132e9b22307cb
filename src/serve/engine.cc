#include "serve/engine.h"

#include <algorithm>
#include <chrono>

#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "util/simd.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace supa::serve {
namespace {

/// Ordering of the top-K heap: a orders before b when a is *worse* —
/// lower score, or equal score and larger id. Identical to the pinned
/// tie-break of eval/predictor RecommendTopK, so the two paths agree on
/// exact ranks.
bool Worse(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// Candidates ahead of the one being scored whose cached h_v rows are
/// prefetched: the scan streams candidates × dim doubles per request.
constexpr size_t kPrefetchItems = 4;

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

struct ServeEngine::Slot {
  const RecommendRequest* request = nullptr;
  RecommendResponse* response = nullptr;
  Status status = Status::OK();
  bool done = false;
  std::chrono::steady_clock::time_point admitted;
};

ServeEngine::ServeEngine(const SupaModel* model, const Dataset* data,
                         ServeOptions options)
    : model_(model), data_(data), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.default_k == 0) options_.default_k = 1;
  candidates_ = data_->TargetNodes();

  auto& reg = obs::MetricsRegistry::Global();
  requests_counter_ = reg.GetCounter("serve.requests");
  rejected_counter_ = reg.GetCounter("serve.rejected");
  batches_counter_ = reg.GetCounter("serve.batches");
  scored_candidates_counter_ = reg.GetCounter("serve.scored_candidates");
  item_refreshes_counter_ = reg.GetCounter("serve.item_refreshes");
  latency_hist_ = reg.GetHistogram(
      "serve.latency_us", obs::MetricsRegistry::ExponentialBounds(10, 2, 16));
  batch_size_hist_ = reg.GetHistogram("serve.batch_size",
                                      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  queue_depth_gauge_ = reg.GetGauge("serve.queue_depth");
  staleness_gauge_ = reg.GetGauge("serve.staleness_edges");
  epoch_gauge_ = reg.GetGauge("serve.snapshot_epoch");
  item_cache_bytes_gauge_ = reg.GetGauge("serve.item_cache_bytes");

  status_scope_.emplace("serve", [this] {
    return std::vector<obs::StatusItem>{
        {"running", running_.load(std::memory_order_relaxed) ? "yes" : "no"},
        {"workers", std::to_string(options_.workers)},
        {"candidates", std::to_string(candidates_.size())},
        {"requests_served",
         std::to_string(served_.load(std::memory_order_relaxed))},
        {"requests_rejected",
         std::to_string(rejected_.load(std::memory_order_relaxed))},
        {"serving_epoch",
         std::to_string(serving_epoch_.load(std::memory_order_relaxed))},
        {"staleness_edges",
         std::to_string(staleness_edges_.load(std::memory_order_relaxed))},
        {"item_cache_bytes",
         std::to_string(item_cache_bytes_.load(std::memory_order_relaxed))},
    };
  });
}

ServeEngine::~ServeEngine() { Stop(); }

void ServeEngine::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.assign(options_.max_queue, nullptr);
  queue_head_ = 0;
  queue_size_ = 0;
  arenas_.clear();
  workers_.clear();
  // The item caches are allocated here, on the calling thread, rather than
  // lazily by each worker: memory a worker thread frees goes back to its
  // own malloc arena, where later allocations of the process do not reuse
  // it.
  const size_t dim = static_cast<size_t>(model_->config().dim);
  size_t cache_bytes = 0;
  for (size_t w = 0; w < options_.workers; ++w) {
    auto arena = std::make_unique<ScoringArena>();
    arena->batch.reserve(options_.max_batch);
    arena->heap.reserve(options_.default_k + 1);
    arena->ranked.reserve(options_.default_k + 1);
    arena->user_h.resize(dim);
    arena->item_h.resize(candidates_.size() * dim);
    arena->item_rows.resize(candidates_.size());
    cache_bytes += arena->user_h.size() * sizeof(double) +
                   arena->item_h.size() * sizeof(double) +
                   arena->item_rows.size() * sizeof(ScoringArena::ItemRows);
    arenas_.push_back(std::move(arena));
  }
  item_cache_bytes_.store(cache_bytes, std::memory_order_relaxed);
  item_cache_bytes_gauge_.Set(static_cast<double>(cache_bytes));
  for (size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(&ServeEngine::WorkerLoop, this, w);
#if defined(__linux__)
    pthread_setname_np(workers_.back().native_handle(), "supa-serve");
#endif
  }
}

void ServeEngine::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  }
  // Workers drain every already-admitted request, then exit; new
  // admissions are rejected the moment running_ flipped.
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

Status ServeEngine::Recommend(const RecommendRequest& request,
                              RecommendResponse* resp) {
  Slot slot;
  slot.request = &request;
  slot.response = resp;
  slot.admitted = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (!running_.load(std::memory_order_relaxed)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_counter_.Increment();
      return Status::FailedPrecondition("serve engine not running");
    }
    if (queue_size_ >= queue_.size()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_counter_.Increment();
      return Status::ResourceExhausted("serve queue full");
    }
    queue_[(queue_head_ + queue_size_) % queue_.size()] = &slot;
    ++queue_size_;
    queue_depth_gauge_.Set(static_cast<double>(queue_size_));
    queue_cv_.notify_one();
    done_cv_.wait(lock, [&slot] { return slot.done; });
  }
  const double latency = MicrosSince(slot.admitted);
  resp->latency_us = latency;
  if (slot.status.ok()) {
    latency_hist_.Observe(latency);
    served_.fetch_add(1, std::memory_order_relaxed);
    requests_counter_.Increment();
  }
  return slot.status;
}

void ServeEngine::WorkerLoop(size_t worker_index) {
  ScoringArena* arena = arenas_[worker_index].get();

  while (true) {
    arena->batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return queue_size_ > 0 || !running_.load(std::memory_order_relaxed);
      });
      if (queue_size_ == 0) return;  // stopped and fully drained
      const size_t take = std::min(queue_size_, options_.max_batch);
      for (size_t i = 0; i < take; ++i) {
        arena->batch.push_back(queue_[queue_head_]);
        queue_head_ = (queue_head_ + 1) % queue_.size();
        --queue_size_;
      }
      queue_depth_gauge_.Set(static_cast<double>(queue_size_));
      // More work than this batch: wake a sibling before scoring.
      if (queue_size_ > 0) queue_cv_.notify_one();
    }

    // One snapshot serves the whole batch; afterwards the item cache pins
    // it until this worker's next request.
    const std::shared_ptr<const store::StoreSnapshot> snapshot =
        model_->AcquireSnapshot();
    serving_epoch_.store(snapshot->epoch(), std::memory_order_relaxed);
    epoch_gauge_.Set(static_cast<double>(snapshot->epoch()));
    const uint64_t live_edges =
        static_cast<uint64_t>(model_->graph_store().num_edges());
    const uint64_t snap_edges = static_cast<uint64_t>(snapshot->num_edges());
    const uint64_t gap = live_edges > snap_edges ? live_edges - snap_edges : 0;
    staleness_edges_.store(gap, std::memory_order_relaxed);
    staleness_gauge_.Set(static_cast<double>(gap));

    batches_counter_.Increment();
    batch_size_hist_.Observe(static_cast<double>(arena->batch.size()));
    {
      SUPA_PHASE(kServeScore);  // one scope == one scoring batch
      for (void* raw : arena->batch) {
        ScoreRequest(snapshot, static_cast<Slot*>(raw), arena);
      }
    }

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (void* raw : arena->batch) {
        static_cast<Slot*>(raw)->done = true;
      }
    }
    done_cv_.notify_all();
  }
}

void ServeEngine::ScoreRequest(
    const std::shared_ptr<const store::StoreSnapshot>& snapshot_ptr,
    Slot* slot, ScoringArena* arena) {
  const store::StoreSnapshot& snapshot = *snapshot_ptr;
  const RecommendRequest& req = *slot->request;
  RecommendResponse* resp = slot->response;
  resp->items.clear();
  resp->snapshot_epoch = snapshot.epoch();
  resp->staleness_edges = staleness_edges_.load(std::memory_order_relaxed);

  if (req.user >= data_->num_nodes()) {
    slot->status = Status::OutOfRange("user id out of range");
    return;
  }
  if (req.relation >= data_->schema.num_edge_types()) {
    slot->status = Status::OutOfRange("relation id out of range");
    return;
  }
  slot->status = Status::OK();
  const size_t k =
      std::min(req.k > 0 ? req.k : options_.default_k, candidates_.size());

  // Items this user already touched under the query relation, read from
  // the same snapshot being scored (sorted and deduplicated).
  arena->seen.clear();
  if (options_.exclude_seen) {
    for (const Neighbor& n : snapshot.AllNeighbors(req.user)) {
      if (n.edge_type == req.relation) arena->seen.push_back(n.node);
    }
    std::sort(arena->seen.begin(), arena->seen.end());
    arena->seen.erase(std::unique(arena->seen.begin(), arena->seen.end()),
                      arena->seen.end());
  }

  // h_u once per request; then one pass over the candidates that scores
  // each from its cached h_v, rebuilding the rows whose snapshot pointers
  // changed. Every candidate is brought up to `snapshot`, skipped ones
  // included, so afterwards the cache matches the snapshot it pins.
  const SupaConfig& config = model_->config();
  const size_t dim = static_cast<size_t>(config.dim);
  const EdgeTypeId ctx_rel =
      config.shared_context ? static_cast<EdgeTypeId>(0) : req.relation;
  const double short_w = config.use_short_term ? 1.0 : 0.0;
  double* hu = arena->user_h.data();
  simd::HRow(snapshot.LongMem(req.user), snapshot.ShortMem(req.user),
             snapshot.Context(req.user, ctx_rel), short_w, hu, dim);

  arena->heap.clear();
  if (arena->heap.capacity() < k + 1) arena->heap.reserve(k + 1);
  size_t scored = 0;
  size_t refreshed = 0;
  // A cache that last served this very epoch under this context relation
  // already matches it: no pointer needs comparing.
  const bool unchanged =
      arena->item_snapshot == snapshot_ptr && arena->item_relation == ctx_rel;
  // candidates_ ascend (Dataset::TargetNodes order), and so does `seen`,
  // so one cursor finds the seen items.
  auto next_seen = arena->seen.cbegin();
  const size_t row_bytes = dim * sizeof(double);
  for (size_t c = 0; c < candidates_.size(); ++c) {
    const NodeId item = candidates_[c];
    double* hv = arena->item_h.data() + c * dim;
    if (c + kPrefetchItems < candidates_.size()) {
      const auto* ahead =
          reinterpret_cast<const char*>(hv + kPrefetchItems * dim);
      for (size_t b = 0; b < row_bytes; b += 64) __builtin_prefetch(ahead + b);
    }
    ScoringArena::ItemRows rows;
    bool fresh = unchanged;
    if (!fresh) {
      rows = {snapshot.LongMem(item), snapshot.ShortMem(item),
              snapshot.Context(item, ctx_rel)};
      fresh = rows == arena->item_rows[c];
      if (!fresh) {
        arena->item_rows[c] = rows;
        ++refreshed;
      }
    }
    while (next_seen != arena->seen.cend() && *next_seen < item) ++next_seen;
    if (item == req.user ||
        (next_seen != arena->seen.cend() && *next_seen == item)) {
      if (!fresh) {
        simd::HRow(rows.long_mem, rows.short_mem, rows.context, short_w, hv,
                   dim);
      }
      continue;
    }
    const double score =
        fresh ? simd::HDot(hu, hv, dim)
              : simd::HDotRefresh(hu, rows.long_mem, rows.short_mem,
                                  rows.context, short_w, hv, dim);
    ++scored;
    const ScoredItem entry{item, score};
    if (arena->heap.size() < k) {
      arena->heap.push_back(entry);
      std::push_heap(arena->heap.begin(), arena->heap.end(), Worse);
    } else if (Worse(entry, arena->heap.front())) {
      std::pop_heap(arena->heap.begin(), arena->heap.end(), Worse);
      arena->heap.back() = entry;
      std::push_heap(arena->heap.begin(), arena->heap.end(), Worse);
    }
  }
  arena->item_snapshot = snapshot_ptr;
  arena->item_relation = ctx_rel;
  scored_candidates_counter_.Increment(scored);
  item_refreshes_counter_.Increment(refreshed);

  // Drain the min-heap worst-first into rank order.
  arena->ranked.clear();
  if (arena->ranked.capacity() < arena->heap.size()) {
    arena->ranked.reserve(arena->heap.size());
  }
  while (!arena->heap.empty()) {
    std::pop_heap(arena->heap.begin(), arena->heap.end(), Worse);
    arena->ranked.push_back(arena->heap.back());
    arena->heap.pop_back();
  }
  resp->items.assign(arena->ranked.rbegin(), arena->ranked.rend());

  // Serve-score distribution for /modelz. Snapshot reads only; the
  // monitor's short mutex is the only synchronization, so worker threads
  // record concurrently without touching each other.
  auto& monitor = obs::ModelMonitor::Global();
  if (monitor.enabled() && !resp->items.empty()) {
    arena->monitor_scores.clear();
    for (const ScoredItem& item : resp->items) {
      arena->monitor_scores.push_back(static_cast<float>(item.score));
    }
    monitor.RecordServeScores(arena->monitor_scores.data(),
                              arena->monitor_scores.size());
  }
}

}  // namespace supa::serve
