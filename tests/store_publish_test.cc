// Incremental epoch publication must be indistinguishable from a full
// copy: after every publish, every embedding row, adjacency list,
// last-active value and α of the epoch equals the live store bit for bit,
// and epochs published earlier never change — whatever mix of recorded
// (declared) and unrecorded (undeclared) writes came before.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "obs/metrics.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace supa::store {
namespace {

StoreOptions Quiet(size_t shards) {
  StoreOptions o;
  o.num_shards = shards;
  o.publish_metrics = false;
  return o;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

/// Everything an epoch exposes, flattened in node order.
struct StoreImage {
  std::vector<float> rows;  // per node: h^L, h^S, c^0 .. c^{R-1}
  std::vector<float> alpha;
  std::vector<std::vector<Neighbor>> adj;
  std::vector<Timestamp> last_active;
  size_t num_edges = 0;
};

/// Reads graph state from `view` (a live GraphStore or a StoreSnapshot)
/// and embedding rows from `rows` (its EmbeddingBank, or the snapshot).
template <typename View, typename Rows>
StoreImage Capture(const View& view, const Rows& rows, size_t num_relations,
                   size_t num_node_types, int dim) {
  StoreImage img;
  const size_t d = static_cast<size_t>(dim);
  auto append = [&](const float* row) {
    img.rows.insert(img.rows.end(), row, row + d);
  };
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    append(rows.LongMem(v));
    append(rows.ShortMem(v));
    for (EdgeTypeId r = 0; r < num_relations; ++r) append(rows.Context(v, r));
    const auto list = view.AllNeighbors(v);
    img.adj.emplace_back(list.begin(), list.end());
    img.last_active.push_back(view.LastActive(v));
  }
  for (NodeTypeId o = 0; o < num_node_types; ++o) {
    img.alpha.push_back(*rows.Alpha(o));
  }
  img.num_edges = view.num_edges();
  return img;
}

StoreImage CaptureLive(const GraphStore& store) {
  const EmbeddingLayout& layout = store.embeddings().layout();
  return Capture(store, store.embeddings(), layout.num_relations(),
                 layout.num_node_types(), layout.dim());
}

StoreImage CaptureSnapshot(const StoreSnapshot& snap) {
  return Capture(snap, snap, snap.num_relations(), snap.num_node_types(),
                 snap.dim());
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectSameImage(const StoreImage& got, const StoreImage& want,
                     const std::string& label) {
  EXPECT_TRUE(SameBits(got.rows, want.rows)) << label << ": rows differ";
  EXPECT_TRUE(SameBits(got.alpha, want.alpha)) << label << ": alpha differs";
  EXPECT_EQ(got.adj, want.adj) << label << ": adjacency differs";
  ASSERT_EQ(got.last_active.size(), want.last_active.size()) << label;
  EXPECT_EQ(std::memcmp(got.last_active.data(), want.last_active.data(),
                        got.last_active.size() * sizeof(Timestamp)),
            0)
      << label << ": last-active differs";
  EXPECT_EQ(got.num_edges, want.num_edges) << label;
}

/// Publishes and checks the new epoch against the live store, then checks
/// that every retained older epoch still shows what it showed when it was
/// published. Retains the new epoch, dropping the oldest beyond `keep`.
class EpochChecker {
 public:
  explicit EpochChecker(size_t keep) : keep_(keep) {}

  template <typename Acquire>
  void PublishAndCheck(const GraphStore& live, Acquire&& acquire,
                       const std::string& label) {
    auto snap = acquire();
    StoreImage want = CaptureLive(live);
    ExpectSameImage(CaptureSnapshot(*snap), want, label + " (new epoch)");
    for (const auto& [old, image] : retained_) {
      ExpectSameImage(CaptureSnapshot(*old), image,
                      label + " (epoch " + std::to_string(old->epoch()) +
                          ")");
    }
    retained_.emplace_back(std::move(snap), std::move(want));
    if (retained_.size() > keep_) retained_.pop_front();
  }

 private:
  size_t keep_;
  std::deque<std::pair<std::shared_ptr<const StoreSnapshot>, StoreImage>>
      retained_;
};

// -- Store level ----------------------------------------------------------

class StorePublishTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StorePublishTest, RandomInterleavingsMatchFullCopies) {
  constexpr size_t kNodes = 300;
  constexpr size_t kRelations = 2;
  constexpr size_t kTypes = 2;
  constexpr int kDim = 4;
  std::vector<NodeTypeId> types(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) types[v] = v % kTypes;
  GraphStore store(kRelations, types, Quiet(GetParam()));
  Rng init(11);
  store.AttachEmbeddings(kRelations, kTypes, kDim, 0.1, init);
  const EmbeddingLayout& layout = store.embeddings().layout();
  const size_t shards = store.num_shards();

  Rng rng(97 + GetParam());
  EpochChecker checker(4);
  std::vector<std::pair<NodeId, NodeId>> edges;  // (u, v) added, type 0
  Timestamp now = 0.0;
  float next_value = 1.0f;

  // Writes a random row of a node on a shard in `mask`.
  auto write_row = [&](uint64_t mask, ShardWriteLease* record_on) {
    NodeId v;
    do {
      v = static_cast<NodeId>(rng.Index(kNodes));
    } while (!(mask & store.ShardMaskOf(v)));
    const size_t kind = rng.Index(2 + kRelations);
    const size_t offset =
        kind == 0   ? layout.LongMemOffset(v)
        : kind == 1 ? layout.ShortMemOffset(v)
                    : layout.ContextOffset(
                          v, static_cast<EdgeTypeId>(kind - 2));
    float* row = store.embeddings().data() + offset;
    for (int k = 0; k < kDim; ++k) row[k] = next_value++;
    if (record_on != nullptr) record_on->RecordRow(offset);
  };

  for (int op = 0; op < 3000; ++op) {
    const double pick = rng.NextDouble();
    if (pick < 0.25) {
      // Declared row writes under a lease over one shard, two, or all.
      uint64_t mask = store.all_shards_mask();
      if (shards > 1 && rng.Bernoulli(0.5)) {
        mask = (uint64_t{1} << rng.Index(shards)) |
               (uint64_t{1} << rng.Index(shards));
      }
      ShardWriteLease lease = store.LeaseMask(mask);
      const size_t n = 1 + rng.Index(10);
      for (size_t i = 0; i < n; ++i) write_row(mask, &lease);
      if ((mask & 1) && rng.Bernoulli(0.3)) {
        // α rides with shard 0 and is never recorded as a row.
        *store.embeddings().Alpha(
            static_cast<NodeTypeId>(rng.Index(kTypes))) = next_value++;
      }
      lease.DeclareComplete();
    } else if (pick < 0.33) {
      // An undeclared writer: records nothing.
      ShardWriteLease lease = store.LeaseAll();
      const size_t n = 1 + rng.Index(10);
      for (size_t i = 0; i < n; ++i) {
        write_row(store.all_shards_mask(), nullptr);
      }
      *store.embeddings().Alpha(0) = next_value++;
    } else if (pick < 0.58) {
      const NodeId u = static_cast<NodeId>(rng.Index(kNodes));
      const NodeId v = static_cast<NodeId>((u + 1 + rng.Index(kNodes - 1)) %
                                           kNodes);
      now += rng.Bernoulli(0.5) ? 1.0 : 0.0;
      ASSERT_TRUE(store.AddEdge(u, v, 0, now).ok());
      edges.emplace_back(u, v);
    } else if (pick < 0.68) {
      if (!edges.empty() && rng.Bernoulli(0.8)) {
        const size_t i = rng.Index(edges.size());
        ASSERT_TRUE(store.RemoveEdge(edges[i].first, edges[i].second, 0).ok());
        edges.erase(edges.begin() + static_cast<ptrdiff_t>(i));
      } else {
        // Not present under type 1: changes nothing.
        EXPECT_EQ(store.RemoveEdge(0, 1, 1).code(), StatusCode::kNotFound);
      }
    } else if (pick < 0.78) {
      store.SetLastActive(static_cast<NodeId>(rng.Index(kNodes)),
                          rng.Uniform(0.0, 100.0));
    } else {
      checker.PublishAndCheck(
          store, [&] { return store.AcquireSnapshot(); },
          "op " + std::to_string(op));
      if (HasFatalFailure() || HasFailure()) return;
    }
  }
  checker.PublishAndCheck(store, [&] { return store.AcquireSnapshot(); },
                          "final");
}

TEST_P(StorePublishTest, SlabBoundRebasesAndKeepsOldEpochs) {
  constexpr size_t kNodes = 64;
  GraphStore store(1, std::vector<NodeTypeId>(kNodes, 0), Quiet(GetParam()));
  Rng init(5);
  store.AttachEmbeddings(1, 1, 8, 0.1, init);
  const EmbeddingLayout& layout = store.embeddings().layout();
  EpochChecker checker(64);
  checker.PublishAndCheck(store, [&] { return store.AcquireSnapshot(); },
                          "first");

  // Each round rewrites 40% of every shard's rows, declared. Appending a
  // round's slab to the previous epoch's slabs grows them by 0.4× the
  // shard per publish, so every shard re-bases once its slabs would pass
  // kRebaseSlabFactor × its rows.
  const uint64_t rebases_before = CounterValue("store.publish_rebases");
  Rng rng(7);
  float value = 0.0f;
  for (int round = 0; round < 12; ++round) {
    ShardWriteLease lease = store.LeaseAll();
    for (NodeId v = 0; v < kNodes; ++v) {
      for (size_t offset : {layout.LongMemOffset(v), layout.ShortMemOffset(v),
                            layout.ContextOffset(v, 0)}) {
        if (!rng.Bernoulli(0.4)) continue;
        float* row = store.embeddings().data() + offset;
        for (int k = 0; k < 8; ++k) row[k] = ++value;
        lease.RecordRow(offset);
      }
    }
    lease.DeclareComplete();
    lease.Release();
    checker.PublishAndCheck(store, [&] { return store.AcquireSnapshot(); },
                            "round " + std::to_string(round));
  }
  size_t shards_with_rows = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    if (layout.shard_rows(s) > 0) ++shards_with_rows;
  }
  EXPECT_GE(CounterValue("store.publish_rebases") - rebases_before,
            shards_with_rows);
}

TEST_P(StorePublishTest, DeclaredWritesCopyOnlyTheirRows) {
  constexpr size_t kNodes = 512;
  constexpr int kDim = 16;
  GraphStore store(2, std::vector<NodeTypeId>(kNodes, 0), Quiet(GetParam()));
  Rng init(5);
  store.AttachEmbeddings(2, 1, kDim, 0.1, init);
  const EmbeddingLayout& layout = store.embeddings().layout();
  const size_t bank_bytes = layout.alpha_begin() * sizeof(float);
  store.AcquireSnapshot();

  auto publish_bytes = [&](const std::function<void()>& write) {
    const uint64_t before = CounterValue("store.publish_bytes");
    write();
    store.AcquireSnapshot();
    return CounterValue("store.publish_bytes") - before;
  };
  const uint64_t declared = publish_bytes([&] {
    ShardWriteLease lease = store.LeaseAll();
    store.embeddings().LongMem(3)[0] += 1.0f;
    lease.RecordRow(layout.LongMemOffset(3));
    lease.DeclareComplete();
  });
  const uint64_t undeclared = publish_bytes([&] {
    ShardWriteLease lease = store.LeaseAll();
    store.embeddings().LongMem(3)[0] += 1.0f;
  });
  // Declared: one row plus pointer tables. Undeclared: every row again.
  EXPECT_GE(undeclared, bank_bytes);
  EXPECT_LT(declared * 4, bank_bytes);
  EXPECT_EQ(store.AcquireSnapshot()->LongMem(3)[0],
            store.embeddings().LongMem(3)[0]);
}

TEST_P(StorePublishTest, SetLastActivePublishesANewEpoch) {
  GraphStore store(1, std::vector<NodeTypeId>(16, 0), Quiet(GetParam()));
  auto before = store.AcquireSnapshot();
  store.SetLastActive(2, 9.0);
  auto after = store.AcquireSnapshot();
  EXPECT_NE(after.get(), before.get());
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_EQ(after->LastActive(2), 9.0);
  EXPECT_EQ(before->LastActive(2), kNeverActive);
  EXPECT_EQ(store.LastActive(2), 9.0);
}

INSTANTIATE_TEST_SUITE_P(Shards, StorePublishTest, ::testing::Values(1, 8));

// -- Model level ----------------------------------------------------------

class ModelPublishTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = ::testing::TempDir() + "/supa_publish_" + name + ".bin";
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SupaConfig Config() const {
    SupaConfig c;
    c.dim = 8;
    c.num_walks = 2;
    c.walk_len = 3;
    c.seed = 3;
    c.shards = GetParam();
    return c;
  }

  void Check(SupaModel& model, const std::string& label) {
    checker_.PublishAndCheck(
        model.graph_store(), [&] { return model.AcquireSnapshot(); }, label);
  }

  std::string path_;
  Dataset data_;
  EpochChecker checker_{3};
};

TEST_P(ModelPublishTest, EveryWriterPublishesWhatItWrote) {
  SupaModel model(data_, Config());
  const auto& edges = data_.edges;
  ASSERT_GT(edges.size(), 700u);
  Check(model, "initial");

  size_t next = 0;
  auto train_serial = [&](size_t n, const std::string& label) {
    for (size_t i = 0; i < n; ++i, ++next) {
      ASSERT_TRUE(model.TrainEdge(edges[next]).ok());
      if (i % 3 == 0) Check(model, label + " train " + std::to_string(next));
      ASSERT_TRUE(model.ObserveEdge(edges[next]).ok());
      if (i % 5 == 0) Check(model, label + " observe " + std::to_string(next));
    }
  };
  train_serial(60, "warm-up");
  ASSERT_FALSE(HasFailure());

  const SupaModel::DeltaSnapshot delta = model.TakeDeltaSnapshot();
  train_serial(25, "before delta restore");
  model.RestoreDeltaSnapshot(delta);
  Check(model, "RestoreDeltaSnapshot");

  const SupaModel::Snapshot full = model.TakeSnapshot();
  train_serial(25, "before full restore");
  model.RestoreSnapshot(full);
  Check(model, "RestoreSnapshot");

  ASSERT_TRUE(model.DeleteEdge(edges[10].src, edges[10].dst, edges[10].type,
                               edges[next].time)
                  .ok());
  Check(model, "DeleteEdge");

  // A 4-writer ingest-pipeline span, observing, while another thread keeps
  // publishing so epochs land between group commits.
  {
    IngestOptions options;
    options.writers = 4;
    options.max_group_edges = 8;
    IngestPipeline pipeline(model, options);
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) model.AcquireSnapshot();
    });
    const Status st = pipeline.TrainSpan(edges, next, next + 120,
                                         /*observe_edges=*/true, nullptr,
                                         nullptr, nullptr);
    Check(model, "pipeline span (observing)");
    const Status again = pipeline.TrainSpan(edges, next, next + 120,
                                            /*observe_edges=*/false, nullptr,
                                            nullptr, nullptr);
    done.store(true, std::memory_order_release);
    reader.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(again.ok()) << again.ToString();
    next += 120;
    Check(model, "pipeline span");
  }

  ASSERT_TRUE(SaveCheckpoint(model, path_).ok());
  train_serial(20, "before LoadCheckpoint");
  ASSERT_TRUE(LoadCheckpoint(path_, &model).ok());
  Check(model, "LoadCheckpoint");
  train_serial(10, "after LoadCheckpoint");
}

TEST_P(ModelPublishTest, EndpointLeaseStepsPublishWhatTheyWrote) {
  // Without propagation and negatives a step leases only its endpoint
  // shards (plus shard 0 for α) and records rows there.
  SupaConfig config = Config();
  config.use_prop_loss = false;
  config.use_neg_loss = false;
  SupaModel model(data_, config);
  Check(model, "initial");
  for (size_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(model.TrainEdge(data_.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data_.edges[i]).ok());
    if (i % 4 == 0) Check(model, "edge " + std::to_string(i));
  }
  Check(model, "final");
}

INSTANTIATE_TEST_SUITE_P(Shards, ModelPublishTest, ::testing::Values(1, 8));

}  // namespace
}  // namespace supa::store
