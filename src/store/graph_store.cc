#include "store/graph_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace supa::store {

namespace {

uint64_t ShardBit(uint32_t s) { return uint64_t{1} << s; }

uint64_t AllShardsMask(size_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

}  // namespace

ShardWriteLease::ShardWriteLease(GraphStore* store, uint64_t mask)
    : store_(store), mask_(mask) {
  // Ascending acquisition order keeps concurrent leases deadlock-free;
  // the snapshot publisher holds at most one shard mutex at a time, so it
  // can never participate in a cycle either.
  for (size_t s = 0; s < store_->shards_.size(); ++s) {
    if (mask_ & ShardBit(static_cast<uint32_t>(s))) {
      std::mutex& mu = store_->shards_[s]->mu;
      // try_lock first so the uncontended hot path stays one CAS; a miss
      // feeds the per-shard contention counter before parking.
      if (!mu.try_lock()) {
        store_->CountLeaseContention(s);
        mu.lock();
      }
    }
  }
}

void ShardWriteLease::RecordRow(size_t offset) {
  const EmbeddingLayout& layout = store_->bank_->layout();
  if (offset >= layout.alpha_begin()) return;
  const size_t s = layout.ShardOfOffset(offset);
  assert(mask_ & ShardBit(static_cast<uint32_t>(s)));
  GraphStore::Shard& sh = *store_->shards_[s];
  if (sh.all_changed) return;
  sh.rows.Insert((offset - layout.shard_begin(s)) /
                 static_cast<size_t>(layout.dim()));
}

void ShardWriteLease::RecordNode(NodeId v) {
  const uint32_t s = store_->map_->shard_of(v);
  assert(mask_ & ShardBit(s));
  GraphStore::Shard& sh = *store_->shards_[s];
  if (sh.all_changed) return;
  sh.chunks.Insert(store_->map_->local_of(v) / kChunkNodes);
}

void ShardWriteLease::Release() {
  if (store_ == nullptr) return;
  for (size_t s = 0; s < store_->shards_.size(); ++s) {
    if (mask_ & ShardBit(static_cast<uint32_t>(s))) {
      GraphStore::Shard& sh = *store_->shards_[s];
      if (!complete_) sh.all_changed = true;
      // Bump before unlock: the next publisher that locks this shard is
      // guaranteed to observe a version ≠ the one it last captured.
      sh.version.fetch_add(1, std::memory_order_release);
      sh.mu.unlock();
    }
  }
  store_ = nullptr;
  mask_ = 0;
  complete_ = false;
}

GraphStore::GraphStore(size_t num_edge_types,
                       std::vector<NodeTypeId> node_types,
                       StoreOptions options)
    : num_edge_types_(num_edge_types),
      node_types_(std::make_shared<const std::vector<NodeTypeId>>(
          std::move(node_types))),
      options_(options),
      cap_hit_counter_(obs::MetricsRegistry::Global().GetCounter(
          "graph.neighbor_cap_hits")),
      publish_bytes_counter_(obs::MetricsRegistry::Global().GetCounter(
          "store.publish_bytes")),
      publish_rebases_counter_(obs::MetricsRegistry::Global().GetCounter(
          "store.publish_rebases")) {
  const size_t num_shards = ResolveNumShards(options_.num_shards);
  options_.num_shards = num_shards;
  map_ = std::make_shared<const NodeShardMap>(node_types_->size(),
                                              num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->adj.resize(map_->shard_size(s));
    shard->last_active.assign(map_->shard_size(s), kNeverActive);
    shards_.push_back(std::move(shard));
  }
  published_.resize(num_shards);
  published_version_.assign(num_shards, 0);
  if (options_.publish_metrics) {
    auto& registry = obs::MetricsRegistry::Global();
    for (size_t s = 0; s < num_shards; ++s) {
      const std::string suffix = "." + std::to_string(s);
      shard_edges_gauges_.push_back(
          registry.GetGauge("store.shard_edges" + suffix));
      shard_nodes_gauges_.push_back(
          registry.GetGauge("store.shard_nodes" + suffix));
      shard_bytes_gauges_.push_back(
          registry.GetGauge("store.shard_bytes" + suffix));
      lease_contention_counters_.push_back(
          registry.GetCounter("store.lease_contention" + suffix));
    }
    RefreshShardMetrics();
    // The provider reads only relaxed atomics and construction-time
    // immutables, per the StatusRegistry contract (no app locks).
    status_scope_.emplace("store/shards", [this] {
      std::vector<obs::StatusItem> items;
      items.push_back({"shards", std::to_string(this->num_shards())});
      items.push_back({"epoch", std::to_string(this->epoch())});
      items.push_back({"edges", std::to_string(this->num_edges())});
      for (size_t s = 0; s < this->num_shards(); ++s) {
        items.push_back(
            {"shard." + std::to_string(s),
             "nodes=" + std::to_string(this->ShardNodes(s)) +
                 " edge_slots=" + std::to_string(this->ShardEdgeSlots(s)) +
                 " bytes=" + std::to_string(this->ShardBytesEstimate(s))});
      }
      return items;
    });
  }
}

GraphStore::~GraphStore() = default;

void GraphStore::AttachEmbeddings(size_t num_relations, size_t num_node_types,
                                  int dim, double init_scale, uint64_t seed) {
  // Undeclared: every shard's next publish copies the new bank whole.
  ShardWriteLease lease = LeaseAll();
  auto layout = std::make_shared<const EmbeddingLayout>(
      map_, num_relations, num_node_types, dim);
  bank_ = std::make_unique<EmbeddingBank>(std::move(layout), init_scale, seed);
}

void GraphStore::AppendHalfEdge(ShardWriteLease& lease, NodeId from,
                                const Neighbor& n) {
  Shard& sh = *shards_[map_->shard_of(from)];
  lease.RecordNode(from);
  sh.adj[map_->local_of(from)].push_back(n);
  sh.edge_slots.fetch_add(1, std::memory_order_relaxed);
}

bool GraphStore::EraseLatestHalfEdge(ShardWriteLease& lease, NodeId from,
                                     NodeId to, EdgeTypeId r) {
  Shard& sh = *shards_[map_->shard_of(from)];
  std::vector<Neighbor>& list = sh.adj[map_->local_of(from)];
  for (size_t i = list.size(); i-- > 0;) {
    if (list[i].node == to && list[i].edge_type == r) {
      lease.RecordNode(from);
      list.erase(list.begin() + static_cast<ptrdiff_t>(i));
      sh.edge_slots.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void GraphStore::WriteLastActive(ShardWriteLease& lease, NodeId v,
                                 Timestamp t) {
  lease.RecordNode(v);
  shards_[map_->shard_of(v)]->last_active[map_->local_of(v)] = t;
}

void GraphStore::SetLastActive(NodeId v, Timestamp t) {
  ShardWriteLease lease = LeaseMask(ShardMaskOf(v));
  WriteLastActive(lease, v, t);
  lease.DeclareComplete();
}

Status GraphStore::AddEdge(NodeId u, NodeId v, EdgeTypeId r, Timestamp t) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range: " +
                              std::to_string(u) + "," + std::to_string(v));
  }
  if (u == v) {
    return Status::InvalidArgument("self loops are not allowed");
  }
  if (r >= num_edge_types_) {
    return Status::OutOfRange("edge type out of range: " + std::to_string(r));
  }
  if (t < latest_time()) {
    return Status::FailedPrecondition(
        "edges must arrive in non-decreasing time order");
  }
  ShardWriteLease lease = LeaseNodes(u, v);
  AppendHalfEdge(lease, u, Neighbor{v, r, t});
  AppendHalfEdge(lease, v, Neighbor{u, r, t});
  WriteLastActive(lease, u, t);
  WriteLastActive(lease, v, t);
  lease.DeclareComplete();
  // Monotonic max under concurrent ingest (a plain store could move the
  // clock backwards when two writers race).
  Timestamp prev = latest_time_.load(std::memory_order_relaxed);
  while (prev < t &&
         !latest_time_.compare_exchange_weak(prev, t,
                                             std::memory_order_relaxed)) {
  }
  num_edges_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status GraphStore::RemoveEdge(NodeId u, NodeId v, EdgeTypeId r) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  ShardWriteLease lease = LeaseNodes(u, v);
  const bool erased_u = EraseLatestHalfEdge(lease, u, v, r);
  const bool erased_v = erased_u && EraseLatestHalfEdge(lease, v, u, r);
  lease.DeclareComplete();
  if (!erased_u) {
    return Status::NotFound("no such edge to remove");
  }
  if (!erased_v) {
    return Status::Internal("asymmetric adjacency state");
  }
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

ShardWriteLease GraphStore::LeaseAll() {
  return ShardWriteLease(this, AllShardsMask(shards_.size()));
}

ShardWriteLease GraphStore::LeaseNodes(NodeId u, NodeId v) {
  return ShardWriteLease(this, ShardBit(map_->shard_of(u)) |
                                   ShardBit(map_->shard_of(v)));
}

uint64_t GraphStore::all_shards_mask() const {
  return AllShardsMask(shards_.size());
}

ShardWriteLease GraphStore::LeaseMask(uint64_t mask) {
  return ShardWriteLease(this, mask & AllShardsMask(shards_.size()));
}

bool GraphStore::TryLeaseMask(uint64_t mask, ShardWriteLease* out) {
  mask &= AllShardsMask(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!(mask & ShardBit(static_cast<uint32_t>(s)))) continue;
    if (shards_[s]->mu.try_lock()) continue;
    CountLeaseContention(s);
    // Back out the prefix we did acquire. No version bumps: a lease that
    // was never granted guarded no writes, so snapshots need not re-copy.
    for (size_t p = 0; p < s; ++p) {
      if (mask & ShardBit(static_cast<uint32_t>(p))) shards_[p]->mu.unlock();
    }
    return false;
  }
  *out = ShardWriteLease(this, mask, ShardWriteLease::AdoptTag{});
  return true;
}

void GraphStore::CountLeaseContention(size_t s) {
  if (s < lease_contention_counters_.size()) {
    lease_contention_counters_[s].Increment();
  }
}

std::vector<NodeId> GraphStore::NodesOfType(NodeTypeId t) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if ((*node_types_)[v] == t) out.push_back(v);
  }
  return out;
}

std::shared_ptr<const ShardSnapshot> GraphStore::PublishShard(
    size_t s, const ShardSnapshot* prev, size_t* bytes) {
  Shard& sh = *shards_[s];
  const bool all = sh.all_changed || prev == nullptr;
  auto shot = std::make_shared<ShardSnapshot>();
  shot->version = sh.version.load(std::memory_order_relaxed);

  const size_t num_nodes = map_->shard_size(s);
  const size_t num_chunks = (num_nodes + kChunkNodes - 1) / kChunkNodes;
  if (all) {
    shot->chunks.resize(num_chunks);
  } else {
    shot->chunks = prev->chunks;
    *bytes += num_chunks * sizeof(shot->chunks[0]);
  }
  sh.chunks.Drain(all, num_chunks, [&](size_t c) {
    auto chunk = std::make_shared<NodeChunk>();
    const size_t first = c * kChunkNodes;
    const size_t count = std::min(kChunkNodes, num_nodes - first);
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) total += sh.adj[first + i].size();
    chunk->neighbors.reserve(total);
    for (size_t i = 0; i < count; ++i) {
      const std::vector<Neighbor>& list = sh.adj[first + i];
      chunk->neighbors.insert(chunk->neighbors.end(), list.begin(),
                              list.end());
      chunk->begin[i + 1] = static_cast<uint32_t>(chunk->neighbors.size());
      chunk->last_active[i] = sh.last_active[first + i];
    }
    *bytes += total * sizeof(Neighbor) + sizeof(NodeChunk);
    shot->chunks[c] = std::move(chunk);
  });

  size_t num_rows = 0;
  if (bank_ != nullptr) {
    const EmbeddingLayout& layout = bank_->layout();
    const size_t dim = static_cast<size_t>(layout.dim());
    num_rows = layout.shard_rows(s);
    // Re-base onto one full slab when the shard is all-changed or when
    // appending this publish's rows would let the slabs outgrow the bound.
    size_t copy_rows = all ? num_rows : sh.rows.count;
    const bool full =
        all || prev->slab_floats + copy_rows * dim >
                   kRebaseSlabFactor * num_rows * dim;
    if (full) {
      copy_rows = num_rows;
      shot->rows.resize(num_rows);
      publish_rebases_counter_.Increment();
    } else {
      shot->rows = prev->rows;
      shot->slabs = prev->slabs;
      shot->slab_floats = prev->slab_floats;
      *bytes += num_rows * sizeof(shot->rows[0]);
    }
    if (copy_rows > 0) {
      std::shared_ptr<float[]> slab(new float[copy_rows * dim]);
      const float* src = bank_->data() + layout.shard_begin(s);
      float* dst = slab.get();
      // Ascending row order keeps a slab's rows in bank order, so readers
      // scanning nodes in id order stay close to sequential.
      sh.rows.Drain(full, num_rows, [&](size_t row) {
        std::memcpy(dst, src + row * dim, dim * sizeof(float));
        shot->rows[row] = dst;
        dst += dim;
      });
      shot->slabs.push_back(std::move(slab));
      shot->slab_floats += copy_rows * dim;
      *bytes += copy_rows * dim * sizeof(float);
    }
  }

  sh.all_changed = false;
  return shot;
}

std::shared_ptr<const StoreSnapshot> GraphStore::AcquireSnapshot() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  bool changed = last_snapshot_ == nullptr;
  for (size_t s = 0; s < shards_.size() && !changed; ++s) {
    changed = published_version_[s] !=
              shards_[s]->version.load(std::memory_order_acquire);
  }
  if (!changed) {
    // Quiescent since the last publish: hand out the same epoch.
    RefreshShardMetrics();
    return last_snapshot_;
  }

  SUPA_TRACE_SPAN_CAT("store/publish", "store");
  size_t bytes = 0;
  std::shared_ptr<const std::vector<float>> alpha =
      last_snapshot_ != nullptr ? last_snapshot_->alpha_ : nullptr;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    if (published_[s] != nullptr &&
        published_version_[s] == sh.version.load(std::memory_order_acquire)) {
      continue;  // Clean since last publish: share the previous copy.
    }
    std::lock_guard<std::mutex> shard_lock(sh.mu);
    published_[s] = PublishShard(s, published_[s].get(), &bytes);
    published_version_[s] = published_[s]->version;
    if (s == 0 && bank_ != nullptr) {
      // α rides with shard 0: its writers' leases always cover shard 0's
      // mutex and bump shard 0's version.
      const EmbeddingLayout& layout = bank_->layout();
      alpha = std::make_shared<const std::vector<float>>(
          bank_->data() + layout.alpha_begin(),
          bank_->data() + layout.size());
      bytes += alpha->size() * sizeof(float);
    }
  }
  publish_bytes_counter_.Increment(bytes);

  auto snap = std::shared_ptr<StoreSnapshot>(new StoreSnapshot());
  snap->map_ = map_;
  snap->layout_ = bank_ != nullptr ? bank_->shared_layout() : nullptr;
  snap->node_types_ = node_types_;
  snap->shards_ = published_;
  snap->alpha_ = alpha != nullptr
                     ? std::move(alpha)
                     : std::make_shared<const std::vector<float>>();
  snap->epoch_ = epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap->num_edges_ = num_edges();
  snap->latest_time_ = latest_time();
  snap->neighbor_cap_ = neighbor_cap();
  last_snapshot_ = std::move(snap);
  RefreshShardMetrics();
  return last_snapshot_;
}

size_t GraphStore::ShardBytesEstimate(size_t s) const {
  size_t bytes = ShardEdgeSlots(s) * sizeof(Neighbor) +
                 map_->shard_size(s) *
                     (sizeof(Timestamp) + sizeof(std::vector<Neighbor>));
  if (bank_ != nullptr) {
    const EmbeddingLayout& layout = bank_->layout();
    bytes += (layout.shard_end(s) - layout.shard_begin(s)) * sizeof(float);
  }
  return bytes;
}

void GraphStore::RefreshShardMetrics() {
  if (!options_.publish_metrics) return;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_edges_gauges_[s].Set(static_cast<double>(ShardEdgeSlots(s)));
    shard_nodes_gauges_[s].Set(static_cast<double>(ShardNodes(s)));
    shard_bytes_gauges_[s].Set(static_cast<double>(ShardBytesEstimate(s)));
  }
}

}  // namespace supa::store
