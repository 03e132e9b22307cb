#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "util/simd.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace supa::serve {
namespace {

/// Candidates the pass takes at a time: their stale rows are rebuilt, then
/// simd::FloatDots estimates the block while its rows are in L1.
constexpr size_t kBlockItems = 8;

/// Candidates ahead of a block whose cached float rows are prefetched: the
/// pass streams candidates × dim floats per request.
constexpr size_t kPrefetchItems = 16;

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
  candidates_ = data_->TargetNodes();
  // Start() reserves default_k + 1 heap slots per worker, so default_k is
  // clipped here, as ScoreRequest clips a request's k.
  options_.default_k = std::clamp<size_t>(
      options_.default_k, 1, std::max<size_t>(candidates_.size(), 1));

  auto& reg = obs::MetricsRegistry::Global();
  requests_counter_ = reg.GetCounter("serve.requests");
  rejected_counter_ = reg.GetCounter("serve.rejected");
  batches_counter_ = reg.GetCounter("serve.batches");
  scored_candidates_counter_ = reg.GetCounter("serve.scored_candidates");
  item_refreshes_counter_ = reg.GetCounter("serve.item_refreshes");
  exact_scores_counter_ = reg.GetCounter("serve.exact_scores");
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
    arena->lower_bounds.reserve(options_.default_k);
    arena->user_h.resize(dim);
    arena->item_floats.resize(candidates_.size() * dim);
    arena->item_norms.resize(candidates_.size());
    arena->item_rows.resize(candidates_.size());
    cache_bytes += arena->user_h.size() * sizeof(float) +
                   arena->item_floats.size() * sizeof(float) +
                   arena->item_norms.size() * sizeof(float) +
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

  // h_u once per request, in float with its norm bound; then one pass over
  // the candidates that rebuilds the cached rows whose snapshot pointers
  // changed and bounds every item's score by its float estimate, so that
  // afterwards the cache matches the snapshot it pins.
  const SupaConfig& config = model_->config();
  const size_t dim = static_cast<size_t>(config.dim);
  const EdgeTypeId ctx_rel =
      config.shared_context ? static_cast<EdgeTypeId>(0) : req.relation;
  const double short_w = config.use_short_term ? 1.0 : 0.0;
  const float* user_long = snapshot.LongMem(req.user);
  const float* user_short = snapshot.ShortMem(req.user);
  const float* user_ctx = snapshot.Context(req.user, ctx_rel);
  float* hu = arena->user_h.data();
  const simd::EstimateBound bound = simd::FloatDotBound(
      simd::FloatH(user_long, user_short, user_ctx, short_w, hu, dim),
      dim);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The k-th best lower bound so far; −∞ until k items were bounded.
  double kth_lower = -kInf;
  std::vector<double>& lows = arena->lower_bounds;
  lows.clear();
  arena->collected.clear();
  size_t refreshed = 0;
  // A cache that last served this very epoch under this context relation
  // already matches it: no pointer needs comparing.
  const bool unchanged =
      arena->item_snapshot == snapshot_ptr && arena->item_relation == ctx_rel;
  const size_t count = candidates_.size();
  float* const item_floats = arena->item_floats.data();
  float estimates[kBlockItems];
  for (size_t begin = 0; begin < count; begin += kBlockItems) {
    const size_t end = std::min(begin + kBlockItems, count);
    const size_t ahead = std::min(begin + kPrefetchItems, count);
    const auto* ahead_row =
        reinterpret_cast<const char*>(item_floats + ahead * dim);
    const size_t ahead_bytes =
        (std::min(ahead + kBlockItems, count) - ahead) * dim * sizeof(float);
    for (size_t b = 0; b < ahead_bytes; b += 64) {
      __builtin_prefetch(ahead_row + b);
    }
    if (!unchanged) {
      for (size_t c = begin; c < end; ++c) {
        const NodeId item = candidates_[c];
        const ScoringArena::ItemRows now{snapshot.LongMem(item),
                                         snapshot.ShortMem(item),
                                         snapshot.Context(item, ctx_rel)};
        ScoringArena::ItemRows& rows = arena->item_rows[c];
        if (now == rows) continue;
        rows = now;
        arena->item_norms[c] =
            simd::FloatH(rows.long_mem, rows.short_mem, rows.context, short_w,
                         item_floats + c * dim, dim);
        ++refreshed;
      }
    }
    simd::FloatDots(hu, item_floats + begin * dim, end - begin, dim,
                    estimates);
    for (size_t c = begin; c < end; ++c) {
      const double estimate = estimates[c - begin];
      const double error = bound.slope * arena->item_norms[c] + bound.offset;
      double upper = estimate + error;
      // Most items end here: k items have a lower bound above this one's
      // upper bound. Strict, so that an item whose score may tie the k-th
      // goes on and its id decides; a −∞ estimate bounds nothing.
      if (upper < kth_lower && estimate != -kInf) continue;
      // The user and the seen items are estimated with the rest, which
      // keeps the loop above free of their tests, and left out here.
      const NodeId item = candidates_[c];
      if (item == req.user || std::binary_search(arena->seen.cbegin(),
                                                 arena->seen.cend(), item)) {
        continue;
      }
      double lower = estimate - error;
      if (!std::isfinite(estimate) || !std::isfinite(error)) {
        lower = -kInf;  // no bound: the item is always scored exactly
        upper = kInf;
      }
      arena->collected.push_back({c, upper});
      if (lows.size() < k) {
        lows.push_back(lower);
        std::push_heap(lows.begin(), lows.end(), std::greater<>());
        if (lows.size() == k) kth_lower = lows.front();
      } else if (lower > kth_lower) {
        std::pop_heap(lows.begin(), lows.end(), std::greater<>());
        lows.back() = lower;
        std::push_heap(lows.begin(), lows.end(), std::greater<>());
        kth_lower = lows.front();
      }
    }
  }
  arena->item_snapshot = snapshot_ptr;
  arena->item_relation = ctx_rel;

  // Exact scores for the items that can still enter the top K: k items
  // have a lower bound of at least kth_lower, so an item whose upper
  // bound is below it ranks under all k of them. The heap orders by
  // RanksAbove, RecommendTopK's order, so its front is the lowest-ranked
  // item kept.
  arena->heap.clear();
  if (arena->heap.capacity() < k + 1) arena->heap.reserve(k + 1);
  size_t exact = 0;
  for (const ScoringArena::Collected& collected : arena->collected) {
    if (collected.upper < kth_lower) continue;
    const ScoringArena::ItemRows& rows = arena->item_rows[collected.index];
    const ScoredItem entry{
        candidates_[collected.index],
        simd::ScoreDot(user_long, user_short, user_ctx, rows.long_mem,
                       rows.short_mem, rows.context, short_w, dim)};
    ++exact;
    if (arena->heap.size() < k) {
      arena->heap.push_back(entry);
      std::push_heap(arena->heap.begin(), arena->heap.end(), RanksAbove);
    } else if (RanksAbove(entry, arena->heap.front())) {
      std::pop_heap(arena->heap.begin(), arena->heap.end(), RanksAbove);
      arena->heap.back() = entry;
      std::push_heap(arena->heap.begin(), arena->heap.end(), RanksAbove);
    }
  }
  scored_candidates_counter_.Increment(candidates_.size());
  item_refreshes_counter_.Increment(refreshed);
  exact_scores_counter_.Increment(exact);

  // Drain the min-heap worst-first into rank order.
  arena->ranked.clear();
  if (arena->ranked.capacity() < arena->heap.size()) {
    arena->ranked.reserve(arena->heap.size());
  }
  while (!arena->heap.empty()) {
    std::pop_heap(arena->heap.begin(), arena->heap.end(), RanksAbove);
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
