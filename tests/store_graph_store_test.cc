#include "store/graph_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "store/embedding_bank.h"
#include "store/shard_map.h"
#include "store/store_options.h"
#include "util/rng.h"

namespace supa::store {
namespace {

StoreOptions Opts(size_t shards) {
  StoreOptions o;
  o.num_shards = shards;
  return o;
}

GraphStore MakeStore(size_t num_nodes, size_t shards,
                     size_t num_edge_types = 2) {
  return GraphStore(num_edge_types, std::vector<NodeTypeId>(num_nodes, 0),
                    Opts(shards));
}

/// Nodes 0, 1: users; 2, 3, 4: items; two edge types. Default options, so
/// the shard count follows SUPA_SHARDS.
GraphStore MakeGraph() { return GraphStore(2, {0, 0, 1, 1, 1}); }

/// A bank at the default placement (SUPA_SHARDS, else one shard).
EmbeddingBank MakeBank(size_t nodes, size_t relations, size_t node_types,
                       int dim, double init_scale, uint64_t seed) {
  auto map = std::make_shared<const NodeShardMap>(nodes, ResolveNumShards(0));
  return EmbeddingBank(std::make_shared<const EmbeddingLayout>(
                           std::move(map), relations, node_types, dim),
                       init_scale, seed);
}

/// Finds a node pair placed on two different shards (exists whenever the
/// map actually uses more than one shard).
bool FindCrossShardPair(const NodeShardMap& map, NodeId* u, NodeId* v) {
  for (NodeId a = 0; a < map.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < map.num_nodes(); ++b) {
      if (map.shard_of(a) != map.shard_of(b)) {
        *u = a;
        *v = b;
        return true;
      }
    }
  }
  return false;
}

TEST(NodeShardMapTest, PartitionsEveryNodeWithDenseLocals) {
  for (size_t shards : {1u, 3u, 8u, 64u}) {
    NodeShardMap map(100, shards);
    ASSERT_EQ(map.num_shards(), shards);
    size_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      total += map.shard_size(s);
      const auto& nodes = map.shard_nodes(s);
      ASSERT_EQ(nodes.size(), map.shard_size(s));
      ASSERT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
      for (size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(map.shard_of(nodes[i]), s);
        EXPECT_EQ(map.local_of(nodes[i]), i);  // dense, ascending id order
      }
    }
    EXPECT_EQ(total, 100u);
  }
}

TEST(NodeShardMapTest, SingleShardIsIdentity) {
  NodeShardMap map(50, 1);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(map.shard_of(v), 0u);
    EXPECT_EQ(map.local_of(v), v);
  }
}

TEST(NodeShardMapTest, PlacementIsStableAcrossInstances) {
  // Placement is a pure function of (node id, shard count): two maps over
  // the same universe must agree — the property checkpoints rely on.
  NodeShardMap a(200, 8);
  NodeShardMap b(200, 8);
  for (NodeId v = 0; v < 200; ++v) {
    EXPECT_EQ(a.shard_of(v), b.shard_of(v));
    EXPECT_EQ(a.local_of(v), b.local_of(v));
  }
}

TEST(StoreOptionsTest, ResolveNumShardsPriorityAndClamp) {
  unsetenv("SUPA_SHARDS");
  EXPECT_EQ(ResolveNumShards(0), 1u);
  EXPECT_EQ(ResolveNumShards(5), 5u);
  EXPECT_EQ(ResolveNumShards(1000), kMaxShards);
  setenv("SUPA_SHARDS", "7", 1);
  EXPECT_EQ(ResolveNumShards(0), 7u);
  EXPECT_EQ(ResolveNumShards(3), 3u);  // explicit request wins
  setenv("SUPA_SHARDS", "not-a-number", 1);
  EXPECT_EQ(ResolveNumShards(0), 1u);
  unsetenv("SUPA_SHARDS");
}

TEST(EmbeddingLayoutTest, OffsetsAreDisjointAndCoverTheBuffer) {
  const size_t kNodes = 23;
  const size_t kRelations = 3;
  const int kDim = 4;
  for (size_t shards : {1u, 3u, 8u}) {
    auto map = std::make_shared<const NodeShardMap>(kNodes, shards);
    EmbeddingLayout layout(map, kRelations, 2, kDim);
    std::vector<size_t> starts;
    for (NodeId v = 0; v < kNodes; ++v) {
      starts.push_back(layout.LongMemOffset(v));
      starts.push_back(layout.ShortMemOffset(v));
      for (EdgeTypeId r = 0; r < kRelations; ++r) {
        starts.push_back(layout.ContextOffset(v, r));
      }
    }
    std::sort(starts.begin(), starts.end());
    for (size_t i = 0; i < starts.size(); ++i) {
      // Rows are disjoint, d apart, and tile [0, alpha_begin).
      EXPECT_EQ(starts[i], i * static_cast<size_t>(kDim));
    }
    EXPECT_EQ(layout.alpha_begin(), starts.size() * kDim);
    EXPECT_EQ(layout.size(), layout.alpha_begin() + 2);  // + α per node type
    // Per-shard regions tile the row area in order.
    size_t begin = 0;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(layout.shard_begin(s), begin);
      begin = layout.shard_end(s);
    }
    EXPECT_EQ(begin, layout.alpha_begin());
  }
}

TEST(EmbeddingBankTest, GatherScatterLogicalRoundTrip) {
  auto map = std::make_shared<const NodeShardMap>(31, 5);
  auto layout = std::make_shared<const EmbeddingLayout>(map, 2, 2, 4);
  EmbeddingBank bank(layout, 0.1, /*seed=*/11);

  std::vector<float> logical(bank.size());
  bank.GatherLogical(bank.data(), logical.data());
  // Scattered back whole, and in ranges of 7 floats, which split the
  // 4-float rows at every possible point.
  for (const size_t piece : {bank.size(), size_t{7}}) {
    std::vector<float> back(bank.size());
    for (size_t at = 0; at < bank.size(); at += piece) {
      const size_t n = std::min(piece, bank.size() - at);
      bank.ScatterLogicalRange(logical.data() + at, at, n, back.data());
    }
    EXPECT_EQ(std::vector<float>(bank.data(), bank.data() + bank.size()), back)
        << "piece=" << piece;
  }
}

TEST(EmbeddingBankTest, InitAndGatherMatchTheMonolithLayout) {
  // Same seed at S=1 and S=5: the physical S=1 buffer IS the logical
  // layout, and the S=5 bank gathered to logical must equal it bit for
  // bit — the invariant that makes checkpoints shard-count portable.
  auto map1 = std::make_shared<const NodeShardMap>(31, 1);
  auto map5 = std::make_shared<const NodeShardMap>(31, 5);
  auto layout1 = std::make_shared<const EmbeddingLayout>(map1, 2, 2, 4);
  auto layout5 = std::make_shared<const EmbeddingLayout>(map5, 2, 2, 4);
  EmbeddingBank bank1(layout1, 0.1, /*seed=*/7);
  EmbeddingBank bank5(layout5, 0.1, /*seed=*/7);
  ASSERT_EQ(bank1.size(), bank5.size());

  std::vector<float> logical1(bank1.size());
  std::vector<float> logical5(bank5.size());
  bank1.GatherLogical(bank1.data(), logical1.data());
  bank5.GatherLogical(bank5.data(), logical5.data());
  EXPECT_EQ(std::vector<float>(bank1.data(), bank1.data() + bank1.size()),
            logical1);  // S=1 gather is the identity
  EXPECT_EQ(logical1, logical5);
}

TEST(EmbeddingBankTest, InitialRowsAreKeyedByLogicalRow) {
  // Logical row l holds the first d Gaussians of Rng(SplitMix64At(seed,
  // l)), drawn here one row at a time. No row's bytes may depend on the
  // shard count or on the rows filled before it.
  constexpr size_t kNodes = 1000, kRelations = 2, kTypes = 3;
  constexpr int kDim = 16;
  constexpr double kScale = 0.1;
  constexpr uint64_t kSeed = 0x5eed;
  const size_t rows = kNodes * (2 + kRelations);
  std::vector<float> want(rows * kDim);
  for (size_t row = 0; row < rows; ++row) {
    Rng rng(SplitMix64At(kSeed, row));
    for (int k = 0; k < kDim; ++k) {
      want[row * kDim + k] = static_cast<float>(rng.Gaussian(0.0, kScale));
    }
  }
  auto make = [&](size_t shards) {
    return std::make_unique<EmbeddingBank>(
        std::make_shared<const EmbeddingLayout>(
            std::make_shared<const NodeShardMap>(kNodes, shards), kRelations,
            kTypes, kDim),
        kScale, kSeed);
  };
  std::vector<std::pair<std::string, std::unique_ptr<EmbeddingBank>>> banks;
  banks.emplace_back("1 shard", make(1));
  banks.emplace_back("8 shards", make(8));
  for (const auto& [name, bank] : banks) {
    std::vector<float> logical(bank->size());
    bank->GatherLogical(bank->data(), logical.data());
    ASSERT_EQ(logical.size(), want.size() + kTypes);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), logical.begin()))
        << name;
    for (NodeTypeId o = 0; o < kTypes; ++o) {
      EXPECT_EQ(*bank->Alpha(o), 0.0f) << name;
    }
  }
  // The draws are N(0, kScale²): 64,000 values put the sample mean within
  // 4σ/√n ≈ 0.0016 of 0 and the variance within a few percent.
  double sum = 0.0, sq = 0.0;
  for (float x : want) {
    sum += x;
    sq += static_cast<double>(x) * x;
  }
  const double mean = sum / static_cast<double>(want.size());
  const double var = sq / static_cast<double>(want.size()) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(var, kScale * kScale, 0.03 * kScale * kScale);
}

TEST(EmbeddingBankTest, LayoutIsDisjointAndComplete) {
  const size_t n = 7;
  const size_t r = 3;
  const size_t t = 2;
  const int d = 8;
  EmbeddingBank bank = MakeBank(n, r, t, d, 0.1, /*seed=*/1);
  const EmbeddingLayout& layout = bank.layout();
  EXPECT_EQ(bank.size(), n * d * 2 + n * r * d + t);

  // Every row offset is unique and rows do not overlap.
  std::set<size_t> offsets;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_TRUE(offsets.insert(layout.LongMemOffset(v)).second);
    EXPECT_TRUE(offsets.insert(layout.ShortMemOffset(v)).second);
    for (EdgeTypeId e = 0; e < r; ++e) {
      EXPECT_TRUE(offsets.insert(layout.ContextOffset(v, e)).second);
    }
  }
  for (size_t row : offsets) EXPECT_EQ(row % d, 0u);
  for (NodeTypeId o = 0; o < t; ++o) {
    EXPECT_TRUE(offsets.insert(layout.AlphaOffset(o)).second);
    EXPECT_GE(layout.AlphaOffset(o), n * d * 2 + n * r * d);
  }
}

TEST(EmbeddingBankTest, PointersMatchOffsets) {
  EmbeddingBank bank = MakeBank(5, 2, 1, 4, 0.1, /*seed=*/2);
  const EmbeddingLayout& layout = bank.layout();
  EXPECT_EQ(bank.LongMem(3), bank.data() + layout.LongMemOffset(3));
  EXPECT_EQ(bank.ShortMem(3), bank.data() + layout.ShortMemOffset(3));
  EXPECT_EQ(bank.Context(3, 1), bank.data() + layout.ContextOffset(3, 1));
  EXPECT_EQ(bank.Alpha(0), bank.data() + layout.AlphaOffset(0));
}

TEST(EmbeddingBankTest, RandomInitNonDegenerate) {
  EmbeddingBank bank = MakeBank(100, 2, 2, 16, 0.1, /*seed=*/3);
  // Embedding entries are random with std 0.1.
  double sum = 0.0;
  double sq = 0.0;
  const size_t emb_count = bank.size() - 2;
  for (size_t i = 0; i < emb_count; ++i) {
    sum += bank.data()[i];
    sq += bank.data()[i] * bank.data()[i];
  }
  const double mean = sum / emb_count;
  const double var = sq / emb_count - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.02);
  // α scalars start at exactly zero (σ(0) = ½ drift coefficient).
  EXPECT_EQ(*bank.Alpha(0), 0.0f);
  EXPECT_EQ(*bank.Alpha(1), 0.0f);
}

TEST(EmbeddingBankTest, DistinctRowsAreIndependent) {
  EmbeddingBank bank = MakeBank(4, 2, 1, 4, 0.1, /*seed=*/4);
  bank.LongMem(0)[0] = 42.0f;
  bank.ShortMem(0)[0] = 43.0f;
  bank.Context(0, 0)[0] = 44.0f;
  bank.Context(0, 1)[0] = 45.0f;
  EXPECT_EQ(bank.LongMem(0)[0], 42.0f);
  EXPECT_EQ(bank.ShortMem(0)[0], 43.0f);
  EXPECT_EQ(bank.Context(0, 0)[0], 44.0f);
  EXPECT_EQ(bank.Context(0, 1)[0], 45.0f);
  EXPECT_NE(bank.LongMem(1)[0], 42.0f);
}

TEST(EmbeddingBankTest, SnapshotRestoreRoundTrip) {
  EmbeddingBank bank = MakeBank(10, 2, 1, 8, 0.1, /*seed=*/5);
  const std::vector<float> snap = bank.Snapshot();
  bank.LongMem(0)[0] += 1.0f;
  bank.Context(9, 1)[7] -= 2.0f;
  EXPECT_NE(bank.Snapshot(), snap);
  bank.Restore(snap);
  EXPECT_EQ(bank.Snapshot(), snap);
}

TEST(EmbeddingBankTest, AccessorDimensions) {
  EmbeddingBank bank = MakeBank(3, 4, 2, 12, 0.05, /*seed=*/6);
  EXPECT_EQ(bank.layout().dim(), 12);
  EXPECT_EQ(bank.layout().num_nodes(), 3u);
  EXPECT_EQ(bank.layout().num_relations(), 4u);
  EXPECT_EQ(bank.layout().num_node_types(), 2u);
}

TEST(GraphStoreTest, DefaultOptionsPublishNoShardGauges) {
  auto shard_gauges = [] {
    size_t count = 0;
    for (const auto& entry :
         obs::MetricsRegistry::Global().Snapshot().entries) {
      if (entry.name.rfind("store.shard_", 0) == 0) ++count;
    }
    return count;
  };
  const size_t before = shard_gauges();
  GraphStore quiet(2, std::vector<NodeTypeId>(16, 0));
  EXPECT_EQ(shard_gauges(), before);

  // The check can see the gauges a publishing store registers.
  StoreOptions publishing;
  publishing.publish_metrics = true;
  GraphStore loud(2, std::vector<NodeTypeId>(16, 0), publishing);
  EXPECT_GT(shard_gauges(), before);
}

TEST(GraphStoreTest, EmptyGraphBasics) {
  GraphStore g = MakeGraph();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_TRUE(g.Neighbors(0).empty());
  EXPECT_EQ(g.LastActive(0), kNeverActive);
  EXPECT_EQ(g.latest_time(), kNeverActive);
}

TEST(GraphStoreTest, AddEdgeIsUndirected) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.Degree(0), 1u);
  ASSERT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].node, 2u);
  EXPECT_EQ(g.Neighbors(2)[0].node, 0u);
  EXPECT_EQ(g.Neighbors(0)[0].edge_type, 0);
  EXPECT_EQ(g.Neighbors(0)[0].time, 1.0);
}

TEST(GraphStoreTest, LastActiveTracksBothEndpoints) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 1, 5.0).ok());
  EXPECT_EQ(g.LastActive(0), 5.0);
  EXPECT_EQ(g.LastActive(2), 1.0);
  EXPECT_EQ(g.LastActive(3), 5.0);
  EXPECT_EQ(g.LastActive(4), kNeverActive);
  EXPECT_EQ(g.latest_time(), 5.0);
}

TEST(GraphStoreTest, SetLastActiveOverrides) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  g.SetLastActive(0, 9.0);
  EXPECT_EQ(g.LastActive(0), 9.0);
}

TEST(GraphStoreTest, RejectsBadEdges) {
  GraphStore g = MakeGraph();
  EXPECT_EQ(g.AddEdge(0, 99, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(99, 0, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(0, 0, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 2, 7, 1.0).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 5.0).ok());
  EXPECT_EQ(g.AddEdge(0, 3, 0, 4.0).code(),
            StatusCode::kFailedPrecondition);  // time went backwards
  ASSERT_TRUE(g.AddEdge(0, 3, 0, 5.0).ok());  // equal time is fine
}

TEST(GraphStoreTest, NeighborsInArrivalOrder) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 4, 1, 3.0).ok());
  auto nb = g.Neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0].node, 2u);
  EXPECT_EQ(nb[1].node, 3u);
  EXPECT_EQ(nb[2].node, 4u);
}

TEST(GraphStoreTest, NeighborCapKeepsMostRecent) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 4, 1, 3.0).ok());
  g.set_neighbor_cap(2);
  auto nb = g.Neighbors(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0].node, 3u);  // oldest of the window first
  EXPECT_EQ(nb[1].node, 4u);
  // Uncapped view still has everything.
  EXPECT_EQ(g.AllNeighbors(0).size(), 3u);
  EXPECT_EQ(g.Degree(0), 3u);
  // Cap larger than degree is a no-op.
  g.set_neighbor_cap(10);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
  // Cap 0 = unlimited.
  g.set_neighbor_cap(0);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
}

TEST(GraphStoreTest, NodeTypesAndNodesOfType) {
  GraphStore g = MakeGraph();
  EXPECT_EQ(g.NodeType(0), 0);
  EXPECT_EQ(g.NodeType(4), 1);
  auto users = g.NodesOfType(0);
  auto items = g.NodesOfType(1);
  EXPECT_EQ(users, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(items, (std::vector<NodeId>{2, 3, 4}));
}

TEST(GraphStoreTest, ParallelEdgesWithDifferentTypesCoexist) {
  // Multiplexity: the same node pair under different relations.
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1, 2.0).ok());
  auto nb = g.Neighbors(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0].edge_type, 0);
  EXPECT_EQ(nb[1].edge_type, 1);
}

TEST(GraphStoreTest, RemoveEdgeDeletesBothDirections) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0, 2.0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2, 0).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Neighbors(0)[0].node, 3u);
}

TEST(GraphStoreTest, RemoveEdgeTakesMostRecentDuplicate) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 5.0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2, 0).ok());
  ASSERT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].time, 1.0);  // the older copy survives
}

TEST(GraphStoreTest, RemoveEdgeRespectsEdgeType) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1, 2.0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2, 1).ok());
  ASSERT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].edge_type, 0);
}

TEST(GraphStoreTest, RemoveEdgeErrors) {
  GraphStore g = MakeGraph();
  ASSERT_TRUE(g.AddEdge(0, 2, 0, 1.0).ok());
  EXPECT_EQ(g.RemoveEdge(0, 3, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.RemoveEdge(0, 2, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.RemoveEdge(0, 99, 0).code(), StatusCode::kOutOfRange);
}

TEST(GraphStoreTest, RandomizedOpsMatchReferenceModel) {
  // Model-based test: random Add/Remove sequences must agree with a naive
  // reference adjacency implementation.
  constexpr size_t kNodes = 12;
  GraphStore g(/*num_edge_types=*/2, std::vector<NodeTypeId>(kNodes, 0));
  // Reference: per node, ordered list of (neighbor, type, time).
  std::vector<std::vector<Neighbor>> ref(kNodes);

  Rng rng(2024);
  Timestamp t = 0.0;
  size_t edges_alive = 0;
  for (int op = 0; op < 3000; ++op) {
    const bool do_remove = edges_alive > 0 && rng.Bernoulli(0.3);
    if (do_remove) {
      // Pick a random existing edge from the reference.
      NodeId u = static_cast<NodeId>(rng.Index(kNodes));
      while (ref[u].empty()) u = static_cast<NodeId>(rng.Index(kNodes));
      const Neighbor target = ref[u][rng.Index(ref[u].size())];
      ASSERT_TRUE(g.RemoveEdge(u, target.node, target.edge_type).ok());
      // Mirror: remove most recent matching entries from both sides.
      auto erase_latest = [](std::vector<Neighbor>& list, NodeId to,
                             EdgeTypeId type) {
        for (size_t i = list.size(); i-- > 0;) {
          if (list[i].node == to && list[i].edge_type == type) {
            list.erase(list.begin() + static_cast<ptrdiff_t>(i));
            return;
          }
        }
      };
      erase_latest(ref[u], target.node, target.edge_type);
      erase_latest(ref[target.node], u, target.edge_type);
      --edges_alive;
    } else {
      const NodeId u = static_cast<NodeId>(rng.Index(kNodes));
      NodeId v = static_cast<NodeId>(rng.Index(kNodes));
      if (u == v) continue;
      const EdgeTypeId r = static_cast<EdgeTypeId>(rng.Index(2));
      t += 1.0;
      ASSERT_TRUE(g.AddEdge(u, v, r, t).ok());
      ref[u].push_back(Neighbor{v, r, t});
      ref[v].push_back(Neighbor{u, r, t});
      ++edges_alive;
    }
  }

  ASSERT_EQ(g.num_edges(), edges_alive);
  for (NodeId v = 0; v < kNodes; ++v) {
    auto actual = g.AllNeighbors(v);
    ASSERT_EQ(actual.size(), ref[v].size()) << "node " << v;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], ref[v][i]) << "node " << v << " entry " << i;
    }
  }
}

TEST(GraphStoreTest, ManyEdgesStressAppend) {
  GraphStore g(/*num_edge_types=*/1, std::vector<NodeTypeId>(100, 0));
  for (int i = 0; i < 5000; ++i) {
    const NodeId u = static_cast<NodeId>(i % 100);
    const NodeId v = static_cast<NodeId>((i + 1) % 100);
    ASSERT_TRUE(g.AddEdge(u, v, 0, static_cast<double>(i)).ok());
  }
  EXPECT_EQ(g.num_edges(), 5000u);
  size_t total_degree = 0;
  for (NodeId v = 0; v < 100; ++v) total_degree += g.Degree(v);
  EXPECT_EQ(total_degree, 10000u);  // 2 endpoints per edge
}

TEST(GraphStoreTest, CrossShardInsertDeleteRoundTrip) {
  GraphStore store = MakeStore(64, 8);
  NodeId u = 0;
  NodeId v = 0;
  ASSERT_TRUE(FindCrossShardPair(store.shard_map(), &u, &v));

  ASSERT_TRUE(store.AddEdge(u, v, 0, 1.0).ok());
  ASSERT_TRUE(store.AddEdge(u, v, 1, 2.0).ok());
  EXPECT_EQ(store.num_edges(), 2u);
  ASSERT_EQ(store.Degree(u), 2u);
  ASSERT_EQ(store.Degree(v), 2u);
  EXPECT_EQ(store.AllNeighbors(u)[0].node, v);
  EXPECT_EQ(store.AllNeighbors(v)[0].node, u);
  EXPECT_EQ(store.LastActive(u), 2.0);
  EXPECT_EQ(store.LastActive(v), 2.0);

  // Each edge holds one adjacency slot on each endpoint's shard.
  size_t slots = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    slots += store.ShardEdgeSlots(s);
  }
  EXPECT_EQ(slots, 4u);

  ASSERT_TRUE(store.RemoveEdge(u, v, 1).ok());
  EXPECT_EQ(store.num_edges(), 1u);
  EXPECT_EQ(store.Degree(u), 1u);
  EXPECT_EQ(store.Degree(v), 1u);
  EXPECT_EQ(store.AllNeighbors(u)[0].edge_type, 0);
  EXPECT_EQ(store.RemoveEdge(u, v, 1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.RemoveEdge(u, v, 0).ok());
  EXPECT_EQ(store.num_edges(), 0u);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.ShardEdgeSlots(s), 0u);
  }
}

TEST(GraphStoreTest, ValidatesEdgesBeforeLeasing) {
  GraphStore store = MakeStore(8, 4);
  EXPECT_EQ(store.AddEdge(0, 99, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.AddEdge(3, 3, 0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.AddEdge(0, 1, 9, 1.0).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(store.AddEdge(0, 1, 0, 5.0).ok());
  EXPECT_EQ(store.AddEdge(0, 2, 0, 4.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.RemoveEdge(0, 99, 0).code(), StatusCode::kOutOfRange);
}

TEST(GraphStoreTest, SnapshotReusesCleanShardsAndEpochs) {
  GraphStore store = MakeStore(64, 8);
  NodeId u = 0;
  NodeId v = 0;
  ASSERT_TRUE(FindCrossShardPair(store.shard_map(), &u, &v));

  auto snap1 = store.AcquireSnapshot();
  const uint64_t epoch1 = snap1->epoch();
  // Quiescent store: re-publishing returns the same epoch (same object).
  auto snap2 = store.AcquireSnapshot();
  EXPECT_EQ(snap2.get(), snap1.get());
  EXPECT_EQ(store.epoch(), epoch1);

  ASSERT_TRUE(store.AddEdge(u, v, 0, 1.0).ok());
  auto snap3 = store.AcquireSnapshot();
  EXPECT_GT(snap3->epoch(), epoch1);
  EXPECT_EQ(snap3->num_edges(), 1u);
  EXPECT_EQ(snap1->num_edges(), 0u);  // old epoch is frozen
  EXPECT_TRUE(snap1->AllNeighbors(u).empty());
  EXPECT_EQ(snap3->AllNeighbors(u)[0].node, v);

  // Only the two endpoint shards were dirty; every other shard's frozen
  // copy is shared (same object) between the epochs.
  const uint32_t su = store.shard_map().shard_of(u);
  const uint32_t sv = store.shard_map().shard_of(v);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    if (s == su || s == sv) {
      EXPECT_NE(&snap3->shard(s), &snap1->shard(s)) << "shard " << s;
    } else {
      EXPECT_EQ(&snap3->shard(s), &snap1->shard(s)) << "shard " << s;
    }
  }
}

TEST(GraphStoreTest, ShardBytesEstimateCountsAdjacencyAndEmbeddings) {
  GraphStore store = MakeStore(32, 4);
  std::vector<size_t> before(store.num_shards());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    before[s] = store.ShardBytesEstimate(s);
  }
  store.AttachEmbeddings(2, 1, 8, 0.1, /*seed=*/5);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const size_t row_floats = store.embeddings().layout().shard_end(s) -
                              store.embeddings().layout().shard_begin(s);
    EXPECT_EQ(store.ShardBytesEstimate(s),
              before[s] + row_floats * sizeof(float));
  }
  ASSERT_TRUE(store.AddEdge(0, 1, 0, 1.0).ok());
  const uint32_t s0 = store.shard_map().shard_of(0);
  EXPECT_GT(store.ShardBytesEstimate(s0),
            before[s0] + (store.embeddings().layout().shard_end(s0) -
                          store.embeddings().layout().shard_begin(s0)) *
                             sizeof(float));
}

TEST(GraphStoreTest, SnapshotServesEmbeddingRows) {
  GraphStore store = MakeStore(16, 4);
  store.AttachEmbeddings(2, 2, 4, 0.1, /*seed=*/9);
  auto snap = store.AcquireSnapshot();
  ASSERT_TRUE(snap->has_embeddings());
  for (NodeId v = 0; v < 16; ++v) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(snap->LongMem(v)[k], store.embeddings().LongMem(v)[k]);
      EXPECT_EQ(snap->ShortMem(v)[k], store.embeddings().ShortMem(v)[k]);
      EXPECT_EQ(snap->Context(v, 1)[k], store.embeddings().Context(v, 1)[k]);
    }
  }
  EXPECT_EQ(*snap->Alpha(0), *store.embeddings().Alpha(0));

  // A leased write lands in the next epoch, not in the frozen one.
  const float old_value = snap->LongMem(3)[0];
  {
    ShardWriteLease lease = store.LeaseAll();
    store.embeddings().LongMem(3)[0] = old_value + 1.0f;
  }
  auto snap2 = store.AcquireSnapshot();
  EXPECT_EQ(snap->LongMem(3)[0], old_value);
  EXPECT_EQ(snap2->LongMem(3)[0], old_value + 1.0f);
}

}  // namespace
}  // namespace supa::store
