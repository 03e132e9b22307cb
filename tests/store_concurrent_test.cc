// Concurrency contract of the storage engine: ingest mutates under write
// leases while scrapes/eval read epoch snapshots, so a reader must never
// block ingest, observe a torn row, or see a frozen epoch change under it.
// Run under TSan in CI (the ingest-vs-scrape interleaving is exactly what
// it exists to vet).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "store/graph_store.h"
#include "util/rng.h"

namespace supa::store {
namespace {

StoreOptions Quiet(size_t shards) {
  StoreOptions o;
  o.num_shards = shards;
  return o;
}

TEST(StoreConcurrentTest, SnapshotIsolationUnderSequentialIngest) {
  GraphStore store(2, std::vector<NodeTypeId>(32, 0), Quiet(8));
  ASSERT_TRUE(store.AddEdge(0, 1, 0, 1.0).ok());
  auto before = store.AcquireSnapshot();

  for (int i = 0; i < 100; ++i) {
    const NodeId u = static_cast<NodeId>(i % 31);
    const NodeId v = static_cast<NodeId>(31);
    if (u == v) continue;
    ASSERT_TRUE(store.AddEdge(u, v, 0, 2.0 + i).ok());
  }

  // The held epoch still shows exactly the pre-ingest state.
  EXPECT_EQ(before->num_edges(), 1u);
  EXPECT_EQ(before->Degree(31), 0u);
  EXPECT_EQ(before->AllNeighbors(0).size(), 1u);
  EXPECT_EQ(before->latest_time(), 1.0);

  auto after = store.AcquireSnapshot();
  EXPECT_EQ(after->num_edges(), 101u);
  EXPECT_EQ(after->Degree(31), 100u);
  EXPECT_GT(after->epoch(), before->epoch());
}

TEST(StoreConcurrentTest, ConcurrentIngestVsScrape) {
  constexpr size_t kNodes = 64;
  constexpr int kEdges = 20000;
  GraphStore store(2, std::vector<NodeTypeId>(kNodes, 0), Quiet(8));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(17);
    for (int i = 0; i < kEdges; ++i) {
      const NodeId u = static_cast<NodeId>(rng.Index(kNodes));
      NodeId v = static_cast<NodeId>(rng.Index(kNodes));
      if (u == v) v = (v + 1) % kNodes;
      // EXPECT (not ASSERT): an early return here would leave `done`
      // unset and hang the scrape loop below.
      EXPECT_TRUE(
          store.AddEdge(u, v, static_cast<EdgeTypeId>(rng.Index(2)),
                        static_cast<Timestamp>(i))
              .ok());
    }
    done.store(true, std::memory_order_release);
  });

  // Scrape continuously while ingest runs. Epoch counters and the frozen
  // per-epoch metadata must be monotone; the first epoch we hold must not
  // move underneath us.
  auto first = store.AcquireSnapshot();
  const size_t first_edges = first->num_edges();
  uint64_t last_epoch = 0;
  size_t last_edges = 0;
  size_t scrapes = 0;
  // do-while: a fast writer may finish before the first scrape; the
  // invariants below must hold either way, so always scrape at least once.
  do {
    auto snap = store.AcquireSnapshot();
    ASSERT_GE(snap->epoch(), last_epoch);
    ASSERT_GE(snap->num_edges(), last_edges);
    last_epoch = snap->epoch();
    last_edges = snap->num_edges();
    // Touch the copied state (TSan would flag a race with ingest).
    size_t half_edges = 0;
    for (NodeId v = 0; v < kNodes; ++v) {
      half_edges += snap->AllNeighbors(v).size();
    }
    ASSERT_LE(half_edges, 2u * static_cast<size_t>(kEdges));
    ++scrapes;
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  EXPECT_GT(scrapes, 0u);
  EXPECT_EQ(first->num_edges(), first_edges);  // held epoch is immutable

  // Quiescent now: the final snapshot agrees with the live store exactly.
  auto final_snap = store.AcquireSnapshot();
  EXPECT_EQ(final_snap->num_edges(), static_cast<size_t>(kEdges));
  for (NodeId v = 0; v < kNodes; ++v) {
    auto live = store.AllNeighbors(v);
    auto frozen = final_snap->AllNeighbors(v);
    ASSERT_EQ(live.size(), frozen.size()) << "node " << v;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i], frozen[i]);
    }
  }
}

TEST(StoreConcurrentTest, LeasedEmbeddingWritesNeverTearUnderScrape) {
  constexpr size_t kNodes = 24;
  constexpr int kDim = 8;
  GraphStore store(2, std::vector<NodeTypeId>(kNodes, 0), Quiet(4));
  // Scale 0: all rows uniform.
  store.AttachEmbeddings(2, 1, kDim, 0.0, /*seed=*/23);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Each iteration rewrites whole h^L rows to a single new value while
    // holding the all-shard lease — the trainer's write pattern.
    for (int iter = 1; iter <= 2000; ++iter) {
      ShardWriteLease lease = store.LeaseAll();
      for (NodeId v = 0; v < kNodes; ++v) {
        float* row = store.embeddings().LongMem(v);
        for (int k = 0; k < kDim; ++k) {
          row[k] = static_cast<float>(iter);
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  // Every scraped row must be internally uniform: a snapshot copies a
  // shard only under that shard's mutex, so a half-written row (possible
  // only if the lease were ignored) would show two different values.
  size_t scrapes = 0;
  do {
    auto snap = store.AcquireSnapshot();
    for (NodeId v = 0; v < kNodes; ++v) {
      const float* row = snap->LongMem(v);
      for (int k = 1; k < kDim; ++k) {
        ASSERT_EQ(row[k], row[0]) << "torn row for node " << v;
      }
    }
    ++scrapes;
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  EXPECT_GT(scrapes, 0u);
  auto final_snap = store.AcquireSnapshot();
  EXPECT_EQ(final_snap->LongMem(0)[0], 2000.0f);
}

TEST(StoreConcurrentTest, DeclaredWritesPublishConsistentlyUnderScrape) {
  constexpr size_t kNodes = 64;
  constexpr int kDim = 8;
  constexpr int kIters = 3000;
  GraphStore store(2, std::vector<NodeTypeId>(kNodes, 0), Quiet(8));
  store.AttachEmbeddings(2, 1, kDim, 0.0, /*seed=*/29);  // scale 0: rows 0
  const EmbeddingLayout& layout = store.embeddings().layout();
  const NodeShardMap& map = store.shard_map();
  // A shard is copied atomically under its own mutex (shards one after
  // another), so each shard carries its own marker: the h^L row of its
  // first node.
  std::vector<NodeId> marker_node(store.num_shards(), kInvalidNode);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    if (!map.shard_nodes(s).empty()) marker_node[s] = map.shard_nodes(s)[0];
  }

  // Iteration i picks a shard, rewrites its marker and a few random rows
  // of its nodes to the value i under the all-shard lease, records exactly
  // those rows and declares the lease complete — the trainer's write
  // pattern. Every 16th iteration also adds an edge.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(31);
    for (int iter = 1; iter <= kIters; ++iter) {
      const size_t s = static_cast<size_t>(iter) % store.num_shards();
      if (marker_node[s] != kInvalidNode) {
        ShardWriteLease lease = store.LeaseAll();
        auto write = [&](size_t offset) {
          float* row = store.embeddings().data() + offset;
          for (int k = 0; k < kDim; ++k) row[k] = static_cast<float>(iter);
          lease.RecordRow(offset);
        };
        write(layout.LongMemOffset(marker_node[s]));
        const std::vector<NodeId>& nodes = map.shard_nodes(s);
        for (int i = 0; i < 4; ++i) {
          const NodeId v = nodes[rng.Index(nodes.size())];
          write(rng.Bernoulli(0.5)
                    ? layout.ShortMemOffset(v)
                    : layout.ContextOffset(
                          v, static_cast<EdgeTypeId>(rng.Index(2))));
        }
        lease.DeclareComplete();
      }
      if (iter % 16 == 0) {
        const NodeId u = static_cast<NodeId>(rng.Index(kNodes));
        EXPECT_TRUE(store
                        .AddEdge(u, static_cast<NodeId>((u + 1) % kNodes), 0,
                                 static_cast<Timestamp>(iter))
                        .ok());
      }
    }
    done.store(true, std::memory_order_release);
  });

  // A row written in iteration i was recorded under the same lease as its
  // shard's marker value i, so no row of an epoch may be newer than its
  // shard's marker, markers never move backwards, and no row may tear.
  size_t scrapes = 0;
  std::vector<float> last_marker(store.num_shards(), 0.0f);
  do {
    auto snap = store.AcquireSnapshot();
    for (NodeId v = 0; v < kNodes; ++v) {
      const uint32_t s = map.shard_of(v);
      const float marker = snap->LongMem(marker_node[s])[0];
      ASSERT_GE(marker, last_marker[s]);
      last_marker[s] = marker;
      for (const float* row :
           {snap->LongMem(v), snap->ShortMem(v), snap->Context(v, 0),
            snap->Context(v, 1)}) {
        for (int k = 1; k < kDim; ++k) {
          ASSERT_EQ(row[k], row[0]) << "torn row for node " << v;
        }
        ASSERT_LE(row[0], marker) << "row newer than its epoch, node " << v;
      }
    }
    ++scrapes;
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  EXPECT_GT(scrapes, 0u);

  // Quiescent: the final epoch equals the live store row for row, so no
  // recorded write was lost between publishes.
  auto final_snap = store.AcquireSnapshot();
  for (NodeId v = 0; v < kNodes; ++v) {
    ASSERT_EQ(std::memcmp(final_snap->LongMem(v),
                          store.embeddings().LongMem(v), kDim * sizeof(float)),
              0)
        << "node " << v;
    ASSERT_EQ(std::memcmp(final_snap->ShortMem(v),
                          store.embeddings().ShortMem(v),
                          kDim * sizeof(float)),
              0)
        << "node " << v;
    for (EdgeTypeId r = 0; r < 2; ++r) {
      ASSERT_EQ(std::memcmp(final_snap->Context(v, r),
                            store.embeddings().Context(v, r),
                            kDim * sizeof(float)),
                0)
          << "node " << v;
    }
    auto live = store.AllNeighbors(v);
    auto frozen = final_snap->AllNeighbors(v);
    ASSERT_TRUE(std::equal(live.begin(), live.end(), frozen.begin(),
                           frozen.end()))
        << "node " << v;
  }
}

}  // namespace
}  // namespace supa::store
