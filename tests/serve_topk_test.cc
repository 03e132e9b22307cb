// Exact rank agreement between the serving engine's batched/SIMD top-K
// path and a brute-force reference built from SupaModel::ScoreOn — same
// snapshot, same candidates, same pinned tie-break (higher score first,
// then smaller node id). The engine scores each item from a per-worker
// cache of h_v rows (simd::HDot / HDotRefresh), which reproduces
// ScoreOn's simd::ScoreDot bit for bit, so the comparison is bitwise on
// both the item ids and the double scores — also after training,
// restores and relation changes have moved some or all of the rows the
// cache was built from.

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"

namespace supa::serve {
namespace {

struct Fixture {
  Dataset data;
  std::unique_ptr<SupaModel> model;

  static Fixture TrainedSmall() {
    Fixture f;
    f.data = MakePaperDataset("taobao", 0.1, 7).value();
    SupaConfig config;
    config.seed = 42;
    f.model = std::make_unique<SupaModel>(f.data, config);
    const auto split = SplitTemporal(f.data).value();
    InsLearnConfig tc;
    tc.max_iters = 2;
    tc.valid_interval = 2;
    tc.threads = 1;
    InsLearnTrainer trainer(tc);
    EXPECT_TRUE(trainer.Train(*f.model, f.data, split.train).ok());
    return f;
  }
};

/// Reference: score every candidate with ScoreOn and sort with the pinned
/// comparator. `exclude_seen` mirrors the engine's snapshot-adjacency rule.
std::vector<ScoredItem> BruteForceTopK(const SupaModel& model,
                                       const Dataset& data, NodeId user,
                                       EdgeTypeId relation, size_t k,
                                       bool exclude_seen) {
  const auto snapshot = model.AcquireSnapshot();
  std::vector<NodeId> seen;
  if (exclude_seen) {
    for (const Neighbor& n : snapshot->AllNeighbors(user)) {
      if (n.edge_type == relation) seen.push_back(n.node);
    }
    std::sort(seen.begin(), seen.end());
  }
  std::vector<ScoredItem> all;
  for (NodeId item : data.TargetNodes()) {
    if (item == user) continue;
    if (exclude_seen &&
        std::binary_search(seen.begin(), seen.end(), item)) {
      continue;
    }
    all.push_back({item, model.ScoreOn(*snapshot, user, item, relation)});
  }
  std::sort(all.begin(), all.end(), [](const ScoredItem& a,
                                       const ScoredItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<NodeId> QueryUsers(const Dataset& data, size_t max_users) {
  std::vector<NodeId> users;
  for (NodeId v = 0; v < data.num_nodes() && users.size() < max_users; ++v) {
    if (data.node_types[v] == data.query_type) users.push_back(v);
  }
  return users;
}

/// The engine's answer must equal BruteForceTopK on the model's current
/// snapshot, ids and scores bitwise.
void ExpectExact(ServeEngine& engine, const SupaModel& model,
                 const Dataset& data, NodeId user, EdgeTypeId relation,
                 size_t k) {
  RecommendRequest req;
  req.user = user;
  req.relation = relation;
  req.k = k;
  RecommendResponse resp;
  ASSERT_TRUE(engine.Recommend(req, &resp).ok());
  const auto expected =
      BruteForceTopK(model, data, user, relation, k, /*exclude_seen=*/true);
  ASSERT_EQ(resp.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.items[i].item, expected[i].item) << "rank " << i;
    EXPECT_EQ(resp.items[i].score, expected[i].score) << "rank " << i;
  }
}

/// A k past any candidate count: the whole ranking is compared.
constexpr size_t kAll = size_t{1} << 40;

uint64_t ItemRefreshes() {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "serve.item_refreshes");
}

TEST(ServeTopKTest, ExactAgreementWithBruteForce) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();

  const EdgeTypeId rel = f.data.target_relations[0];
  for (NodeId user : QueryUsers(f.data, 12)) {
    RecommendRequest req;
    req.user = user;
    req.relation = rel;
    req.k = 7;
    RecommendResponse resp;
    ASSERT_TRUE(engine.Recommend(req, &resp).ok()) << "user " << user;

    const auto expected =
        BruteForceTopK(*f.model, f.data, user, rel, 7, /*exclude_seen=*/true);
    ASSERT_EQ(resp.items.size(), expected.size()) << "user " << user;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(resp.items[i].item, expected[i].item)
          << "user " << user << " rank " << i;
      // Bitwise: the engine runs the same fused kernel as ScoreOn.
      EXPECT_EQ(resp.items[i].score, expected[i].score)
          << "user " << user << " rank " << i;
    }
  }
  engine.Stop();
}

TEST(ServeTopKTest, AgreementAcrossRelationsAndKs) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();

  const auto users = QueryUsers(f.data, 3);
  for (EdgeTypeId rel = 0; rel < f.data.schema.num_edge_types(); ++rel) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{20}}) {
      for (NodeId user : users) {
        RecommendRequest req;
        req.user = user;
        req.relation = rel;
        req.k = k;
        RecommendResponse resp;
        ASSERT_TRUE(engine.Recommend(req, &resp).ok());
        const auto expected = BruteForceTopK(*f.model, f.data, user, rel, k,
                                             /*exclude_seen=*/true);
        ASSERT_EQ(resp.items.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(resp.items[i].item, expected[i].item);
          EXPECT_EQ(resp.items[i].score, expected[i].score);
        }
      }
    }
  }
  engine.Stop();
}

TEST(ServeTopKTest, KLargerThanCandidatePoolReturnsEverything) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();

  const NodeId user = QueryUsers(f.data, 1).at(0);
  RecommendRequest req;
  req.user = user;
  req.relation = f.data.target_relations[0];
  req.k = f.data.num_nodes() * 2;
  RecommendResponse resp;
  ASSERT_TRUE(engine.Recommend(req, &resp).ok());
  const auto expected =
      BruteForceTopK(*f.model, f.data, user, req.relation, req.k,
                     /*exclude_seen=*/true);
  ASSERT_EQ(resp.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.items[i].item, expected[i].item);
    EXPECT_EQ(resp.items[i].score, expected[i].score);
  }
  engine.Stop();
}

TEST(ServeTopKTest, HugeKIsClippedBeforeAnyAllocation) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();
  // 2^40 heap slots would not fit in memory; k is clipped to the
  // candidate count first, so this answers with every unseen candidate.
  ExpectExact(engine, *f.model, f.data, QueryUsers(f.data, 1).at(0),
              f.data.target_relations[0], kAll);
  engine.Stop();
}

// The item cache against a model that moves under it: training bursts
// between requests rewrite some items' rows and leave the rest, a restore
// moves every row, and a relation change swaps every item's context row.
// Every score of every candidate must stay bitwise equal to the reference
// (a stale row outside a top-10 would not show in one), and a request on
// an unchanged epoch must rebuild no cached row.
TEST(ServeTopKTest, ItemCacheStaysExactAsTheModelMoves) {
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
    SupaConfig config;
    config.seed = 42;
    config.shards = shards;
    SupaModel model(data, config);
    const auto split = SplitTemporal(data).value();
    InsLearnConfig tc;
    tc.max_iters = 2;
    tc.valid_interval = 2;
    tc.threads = 1;
    ASSERT_TRUE(InsLearnTrainer(tc).Train(model, data, split.train).ok());
    const SupaModel::Snapshot trained = model.TakeSnapshot();

    ServeOptions options;
    options.workers = 1;  // one cache, so refresh counts are exact
    ServeEngine engine(&model, &data, options);
    engine.Start();
    const size_t candidates = engine.candidates().size();
    const auto users = QueryUsers(data, 4);
    ASSERT_EQ(users.size(), 4u);
    ASSERT_GE(data.schema.num_edge_types(), 2u);
    const EdgeTypeId rel = data.target_relations[0];
    const EdgeTypeId other =
        static_cast<EdgeTypeId>((rel + 1) % data.schema.num_edge_types());

    // Cold cache: every candidate is built.
    uint64_t before = ItemRefreshes();
    ExpectExact(engine, model, data, users[0], rel, kAll);
    EXPECT_EQ(ItemRefreshes() - before, candidates);

    // Same epoch, other users: nothing to rebuild.
    before = ItemRefreshes();
    ExpectExact(engine, model, data, users[1], rel, kAll);
    ExpectExact(engine, model, data, users[2], rel, 5);
    EXPECT_EQ(ItemRefreshes() - before, 0u);

    // Training bursts between requests: some rows move, most do not.
    size_t next_edge = split.valid.begin;
    for (int burst = 0; burst < 4; ++burst) {
      for (int e = 0; e < 3; ++e) {
        const TemporalEdge& edge = data.edges[next_edge++];
        ASSERT_TRUE(model.ObserveEdge(edge).ok());
        ASSERT_TRUE(model.TrainEdge(edge).ok());
      }
      before = ItemRefreshes();
      ExpectExact(engine, model, data, users[burst % users.size()], rel,
                  kAll);
      const uint64_t refreshed = ItemRefreshes() - before;
      EXPECT_GT(refreshed, 0u) << "burst " << burst;
      EXPECT_LT(refreshed, candidates) << "burst " << burst;
    }

    // Alternating relations: every context row differs, so every item is
    // rebuilt on each switch.
    for (int i = 0; i < 4; ++i) {
      before = ItemRefreshes();
      ExpectExact(engine, model, data, users[i], i % 2 == 0 ? other : rel,
                  kAll);
      EXPECT_EQ(ItemRefreshes() - before, candidates) << "switch " << i;
    }

    // A restore rewrites every row: every pointer changes.
    model.RestoreSnapshot(trained);
    before = ItemRefreshes();
    ExpectExact(engine, model, data, users[3], rel, kAll);
    EXPECT_EQ(ItemRefreshes() - before, candidates);
    engine.Stop();
  }
}

// The cache compares row addresses, so it must keep the slabs behind its
// pointers alive: a freed slab can be reallocated at the same address with
// other rows, and a stale row would then pass for an unchanged one. Here
// every row moves twice between two requests of one worker, and the store
// drops the epoch the cache was built on in between.
TEST(ServeTopKTest, ItemCacheKeepsTheSlabsItComparesAlive) {
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
    SupaConfig config;
    config.seed = 42;
    config.shards = shards;
    SupaModel model(data, config);
    const auto split = SplitTemporal(data).value();
    std::vector<SupaModel::Snapshot> states;
    size_t next_edge = split.train.begin;
    for (int round = 0; round < 3; ++round) {
      for (int e = 0; e < 40; ++e) {
        const TemporalEdge& edge = data.edges[next_edge++];
        ASSERT_TRUE(model.ObserveEdge(edge).ok());
        ASSERT_TRUE(model.TrainEdge(edge).ok());
      }
      states.push_back(model.TakeSnapshot());
    }
    ServeOptions options;
    options.workers = 1;
    ServeEngine engine(&model, &data, options);
    engine.Start();
    const NodeId user = QueryUsers(data, 1).at(0);
    const EdgeTypeId rel = data.target_relations[0];
    for (size_t i = 0; i < 6; ++i) {
      model.RestoreSnapshot(states[i % 3]);
      ExpectExact(engine, model, data, user, rel, kAll);
      model.RestoreSnapshot(states[(i + 1) % 3]);
      (void)model.AcquireSnapshot();  // the served epoch leaves the store
      model.RestoreSnapshot(states[(i + 2) % 3]);
      ExpectExact(engine, model, data, user, rel, kAll);
    }
    engine.Stop();
  }
}

TEST(ServeTopKTest, ZeroKUsesDefaultK) {
  Fixture f = Fixture::TrainedSmall();
  ServeOptions options;
  options.default_k = 4;
  ServeEngine engine(f.model.get(), &f.data, options);
  engine.Start();

  RecommendRequest req;
  req.user = QueryUsers(f.data, 1).at(0);
  req.relation = f.data.target_relations[0];
  req.k = 0;
  RecommendResponse resp;
  ASSERT_TRUE(engine.Recommend(req, &resp).ok());
  EXPECT_EQ(resp.items.size(), 4u);
  engine.Stop();
}

// `supa_cli serve --k 0` sets default_k to 0; a request that leaves k
// unset must still get a well-formed answer (one item), never a top-K
// heap of zero slots.
TEST(ServeTopKTest, ZeroDefaultKServesOneItem) {
  Fixture f = Fixture::TrainedSmall();
  ServeOptions options;
  options.default_k = 0;
  ServeEngine engine(f.model.get(), &f.data, options);
  engine.Start();
  ExpectExact(engine, *f.model, f.data, QueryUsers(f.data, 1).at(0),
              f.data.target_relations[0], 1);
  RecommendRequest req;
  req.user = QueryUsers(f.data, 1).at(0);
  req.relation = f.data.target_relations[0];
  RecommendResponse resp;
  ASSERT_TRUE(engine.Recommend(req, &resp).ok());
  EXPECT_EQ(resp.items.size(), 1u);
  engine.Stop();
}

TEST(ServeTopKTest, SeenItemsExcludedAndIncludableViaOption) {
  Fixture f = Fixture::TrainedSmall();
  const NodeId user = QueryUsers(f.data, 1).at(0);
  const EdgeTypeId rel = f.data.target_relations[0];

  // Collect this user's seen items from a snapshot (what the engine
  // excludes).
  std::vector<NodeId> seen;
  {
    const auto snapshot = f.model->AcquireSnapshot();
    for (const Neighbor& n : snapshot->AllNeighbors(user)) {
      if (n.edge_type == rel) seen.push_back(n.node);
    }
    std::sort(seen.begin(), seen.end());
  }
  ASSERT_FALSE(seen.empty()) << "fixture user has no interactions";

  {
    ServeEngine engine(f.model.get(), &f.data);  // exclude_seen = true
    engine.Start();
    RecommendRequest req;
    req.user = user;
    req.relation = rel;
    req.k = f.data.num_nodes();
    RecommendResponse resp;
    ASSERT_TRUE(engine.Recommend(req, &resp).ok());
    for (const ScoredItem& item : resp.items) {
      EXPECT_FALSE(std::binary_search(seen.begin(), seen.end(), item.item))
          << "seen item " << item.item << " not excluded";
    }
    engine.Stop();
  }
  {
    ServeOptions options;
    options.exclude_seen = false;
    ServeEngine engine(f.model.get(), &f.data, options);
    engine.Start();
    RecommendRequest req;
    req.user = user;
    req.relation = rel;
    req.k = f.data.num_nodes();
    RecommendResponse resp;
    ASSERT_TRUE(engine.Recommend(req, &resp).ok());
    const auto expected = BruteForceTopK(*f.model, f.data, user, rel, req.k,
                                         /*exclude_seen=*/false);
    ASSERT_EQ(resp.items.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(resp.items[i].item, expected[i].item);
      EXPECT_EQ(resp.items[i].score, expected[i].score);
    }
    engine.Stop();
  }
}

TEST(ServeTopKTest, InvalidRequestsRejectedWithOutOfRange) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();

  RecommendRequest req;
  req.user = static_cast<NodeId>(f.data.num_nodes() + 100);
  req.relation = f.data.target_relations[0];
  RecommendResponse resp;
  EXPECT_EQ(engine.Recommend(req, &resp).code(), StatusCode::kOutOfRange);

  req.user = 0;
  req.relation =
      static_cast<EdgeTypeId>(f.data.schema.num_edge_types() + 3);
  EXPECT_EQ(engine.Recommend(req, &resp).code(), StatusCode::kOutOfRange);
  engine.Stop();
}

TEST(ServeTopKTest, RecommendBeforeStartFailsPrecondition) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  RecommendRequest req;
  req.user = 0;
  RecommendResponse resp;
  EXPECT_EQ(engine.Recommend(req, &resp).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace supa::serve
