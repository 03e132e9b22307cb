// Lease contention stress: many threads grab random shard masks via the
// ingest scheduler's TryLeaseMask / LeaseMask pair and scribble
// uniform-valued patterns over the covered shards' embedding rows while a
// reader thread keeps publishing snapshots. Designed to run under TSan
// (it is in the CI sanitizer target list): completion proves the mixed
// try/blocking acquisition order cannot deadlock, and the uniform-row
// check proves no write ever lands outside its lease (a torn row would
// mix two threads' fill values).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "store/embedding_bank.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa::store {
namespace {

constexpr size_t kShards = 8;
constexpr size_t kNodes = 256;
constexpr int kDim = 12;
constexpr size_t kThreads = 6;
constexpr size_t kRoundsPerThread = 2000;

class LeaseStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoreOptions opts;
    opts.num_shards = kShards;
    opts.publish_metrics = false;
    store_ = std::make_unique<GraphStore>(
        /*num_edge_types=*/2, std::vector<NodeTypeId>(kNodes, 0), opts);
    Rng rng(7);
    store_->AttachEmbeddings(/*num_relations=*/2, /*num_node_types=*/1,
                             kDim, /*init_scale=*/0.1, rng);
  }

  std::unique_ptr<GraphStore> store_;
};

// Fills every long-term row owned by a shard in `mask` with one value.
void FillLeasedRows(GraphStore& store, uint64_t mask, float value) {
  EmbeddingBank& bank = store.embeddings();
  for (NodeId v = 0; v < store.num_nodes(); ++v) {
    if (!((mask >> store.shard_map().shard_of(v)) & 1)) continue;
    float* row = bank.LongMem(v);
    for (int d = 0; d < kDim; ++d) row[d] = value;
  }
}

TEST_F(LeaseStressTest, RandomMasksNoDeadlockNoTornRows) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> acquired{0};
  std::atomic<size_t> try_hits{0};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + w);
      for (size_t round = 0; round < kRoundsPerThread; ++round) {
        // 1–3 random shards, sometimes everything (a group commit's shape).
        uint64_t mask = 0;
        if (rng.Bernoulli(0.05)) {
          mask = store_->all_shards_mask();
        } else {
          const size_t bits = 1 + rng.Index(3);
          for (size_t b = 0; b < bits; ++b) {
            mask |= uint64_t{1} << rng.Index(kShards);
          }
        }
        ShardWriteLease lease;
        if (store_->TryLeaseMask(mask, &lease)) {
          try_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          lease = store_->LeaseMask(mask);
        }
        acquired.fetch_add(1, std::memory_order_relaxed);
        // Every row this lease covers gets one uniform value; a data race
        // with another writer would leave a row holding a mix.
        FillLeasedRows(*store_, mask,
                       static_cast<float>(w * kRoundsPerThread + round));
        lease.Release();
      }
    });
  }

  // Snapshot publisher racing the writers (copies dirty shards under
  // their mutexes — must interleave cleanly with both lease flavors).
  std::thread reader([&] {
    size_t published = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto snap = store_->AcquireSnapshot();
      ASSERT_NE(snap, nullptr);
      ++published;
      std::this_thread::yield();
    }
    EXPECT_GT(published, 0u);
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(acquired.load(), kThreads * kRoundsPerThread);
  // The whole point of TryLeaseMask is that uncontended grabs skip the
  // blocking path; across 12000 rounds at 8 shards some must succeed.
  EXPECT_GT(try_hits.load(), 0u);

  // Final state: every row uniform (the last writer to lease it wrote all
  // kDim lanes under exclusion).
  const EmbeddingBank& bank = store_->embeddings();
  for (NodeId v = 0; v < kNodes; ++v) {
    const float* row = bank.LongMem(v);
    for (int d = 1; d < kDim; ++d) {
      ASSERT_EQ(row[d], row[0]) << "torn row at node " << v << " lane " << d;
    }
  }

}

TEST_F(LeaseStressTest, TryLeaseMaskBacksOutCleanly) {
  // Hold shard 2, then try masks overlapping it: the try must fail and
  // leave every *other* shard lockable.
  ShardWriteLease held = store_->LeaseMask(uint64_t{1} << 2);
  ShardWriteLease out;
  EXPECT_FALSE(store_->TryLeaseMask((uint64_t{1} << 2) | (uint64_t{1} << 5),
                                    &out));
  // The backed-out shard 5 is free again — a non-overlapping try succeeds.
  EXPECT_TRUE(store_->TryLeaseMask(uint64_t{1} << 5, &out));
  out.Release();
  held.Release();
  // And after release everything is grabbable at once.
  EXPECT_TRUE(store_->TryLeaseMask(store_->all_shards_mask(), &out));
}

}  // namespace
}  // namespace supa::store
