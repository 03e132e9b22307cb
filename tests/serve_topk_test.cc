// Exact rank agreement between the serving engine's batched/SIMD top-K
// path and a brute-force reference built from SupaModel::ScoreOn — same
// snapshot, same candidates, same pinned order (higher score first, then
// smaller node id, NaN last). The engine bounds every item's score by a
// float estimate from a per-worker cache of h_v rows (simd::FloatH,
// FloatDots) and scores exactly, with ScoreOn's simd::ScoreDot, only the
// items that can still enter the top K, so the comparison is bitwise on
// both the item ids and the double scores — also after training,
// restores and relation changes have moved some or all of the rows the
// cache was built from, and on rows built to defeat the bound: ties at
// the k-th place, ±1e30, denormal and NaN entries, and norms that jump.

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "store/embedding_bank.h"
#include "store/graph_store.h"
#include "util/rng.h"

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
    if (std::isnan(a.score) || std::isnan(b.score)) {
      return std::isnan(a.score) == std::isnan(b.score) ? a.item < b.item
                                                         : std::isnan(b.score);
    }
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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The engine's answer must equal BruteForceTopK on the model's current
/// snapshot, ids and scores bitwise. k = 0 sends a request without k,
/// which the engine answers at its default_k.
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
      BruteForceTopK(model, data, user, relation,
                     k > 0 ? k : engine.options().default_k,
                     engine.options().exclude_seen);
  ASSERT_EQ(resp.items.size(), expected.size()) << "k " << k;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.items[i].item, expected[i].item)
        << "k " << k << " rank " << i;
    EXPECT_TRUE(SameBits(resp.items[i].score, expected[i].score))
        << "k " << k << " rank " << i << ": " << resp.items[i].score
        << " vs " << expected[i].score;
  }
}

/// A k past any candidate count: the whole ranking is compared.
constexpr size_t kAll = size_t{1} << 40;

uint64_t ItemRefreshes() {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "serve.item_refreshes");
}

uint64_t ExactScores() {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "serve.exact_scores");
}

uint64_t ScoredCandidates() {
  return obs::MetricsRegistry::Global().Snapshot().CounterValue(
      "serve.scored_candidates");
}

/// Every request of the cache tests runs at these k as well: at kAll every
/// item is scored exactly, so only a small k lets the float rows and their
/// norm bounds decide what is left out.
constexpr size_t kCacheKs[] = {kAll, 1, 10};

TEST(ServeTopKTest, ExactAgreementWithBruteForce) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();

  const uint64_t exact_before = ExactScores();
  const uint64_t scored_before = ScoredCandidates();
  const EdgeTypeId rel = f.data.target_relations[0];
  for (NodeId user : QueryUsers(f.data, 12)) {
    SCOPED_TRACE("user " + std::to_string(user));
    ExpectExact(engine, *f.model, f.data, user, rel, 7);
  }
  // The bound leaves most candidates without an exact score.
  EXPECT_LT(4 * (ExactScores() - exact_before),
            ScoredCandidates() - scored_before);
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
        ExpectExact(engine, *f.model, f.data, user, rel, k);
      }
    }
  }
  engine.Stop();
}

TEST(ServeTopKTest, KLargerThanCandidatePoolReturnsEverything) {
  Fixture f = Fixture::TrainedSmall();
  ServeEngine engine(f.model.get(), &f.data);
  engine.Start();
  ExpectExact(engine, *f.model, f.data, QueryUsers(f.data, 1).at(0),
              f.data.target_relations[0], f.data.num_nodes() * 2);
  engine.Stop();
}

// k at the candidate count and one below it, with and without the seen
// items: without them every candidate is eligible, so one less leaves out
// exactly the last one.
TEST(ServeTopKTest, KAtAndBelowTheCandidateCount) {
  Fixture f = Fixture::TrainedSmall();
  for (const bool exclude_seen : {true, false}) {
    SCOPED_TRACE(exclude_seen ? "seen excluded" : "seen included");
    ServeOptions options;
    options.exclude_seen = exclude_seen;
    ServeEngine engine(f.model.get(), &f.data, options);
    engine.Start();
    const size_t count = engine.candidates().size();
    for (NodeId user : QueryUsers(f.data, 2)) {
      for (EdgeTypeId rel = 0; rel < f.data.schema.num_edge_types(); ++rel) {
        ExpectExact(engine, *f.model, f.data, user, rel, count);
        ExpectExact(engine, *f.model, f.data, user, rel, count - 1);
      }
    }
    engine.Stop();
  }
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

// `supa_cli serve --k N` sets default_k unchecked, and Start() reserves
// default_k + 1 heap slots per worker: the constructor clips it to the
// candidate count, so a request without k gets every unseen candidate.
TEST(ServeTopKTest, HugeDefaultKIsClippedAtStart) {
  Fixture f = Fixture::TrainedSmall();
  ServeOptions options;
  options.default_k = kAll;
  ServeEngine engine(f.model.get(), &f.data, options);
  engine.Start();
  EXPECT_EQ(engine.options().default_k, engine.candidates().size());
  ExpectExact(engine, *f.model, f.data, QueryUsers(f.data, 1).at(0),
              f.data.target_relations[0], 0);
  engine.Stop();
}

/// A trained model at `shards` shards (the cache tests' fixture).
std::unique_ptr<SupaModel> TrainedModel(const Dataset& data, size_t shards) {
  SupaConfig config;
  config.seed = 42;
  config.shards = shards;
  auto model = std::make_unique<SupaModel>(data, config);
  const auto split = SplitTemporal(data).value();
  InsLearnConfig tc;
  tc.max_iters = 2;
  tc.valid_interval = 2;
  tc.threads = 1;
  EXPECT_TRUE(InsLearnTrainer(tc).Train(*model, data, split.train).ok());
  return model;
}

// The item cache against a model that moves under it: training bursts
// between requests rewrite some items' rows and leave the rest, a restore
// moves every row, and a relation change swaps every item's context row.
// Every answer must stay bitwise equal to the reference: with every
// candidate asked for, every score (a stale row outside a top-10 would
// not show in one); at k = 1 and 10, the items the bound left out. A
// request on an unchanged epoch must rebuild no cached row.
TEST(ServeTopKTest, ItemCacheStaysExactAsTheModelMoves) {
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    for (const size_t k : kCacheKs) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " k " +
                   std::to_string(k));
      const Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
      const auto split = SplitTemporal(data).value();
      const auto trained_model = TrainedModel(data, shards);
      SupaModel& model = *trained_model;
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
      ExpectExact(engine, model, data, users[0], rel, k);
      EXPECT_EQ(ItemRefreshes() - before, candidates);

      // Same epoch, other users: nothing to rebuild.
      before = ItemRefreshes();
      ExpectExact(engine, model, data, users[1], rel, k);
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
        ExpectExact(engine, model, data, users[burst % users.size()], rel, k);
        const uint64_t refreshed = ItemRefreshes() - before;
        EXPECT_GT(refreshed, 0u) << "burst " << burst;
        EXPECT_LT(refreshed, candidates) << "burst " << burst;
      }

      // Alternating relations: every context row differs, so every item is
      // rebuilt on each switch.
      for (int i = 0; i < 4; ++i) {
        before = ItemRefreshes();
        ExpectExact(engine, model, data, users[i], i % 2 == 0 ? other : rel,
                    k);
        EXPECT_EQ(ItemRefreshes() - before, candidates) << "switch " << i;
      }

      // A restore rewrites every row: every pointer changes.
      model.RestoreSnapshot(trained);
      before = ItemRefreshes();
      ExpectExact(engine, model, data, users[3], rel, k);
      EXPECT_EQ(ItemRefreshes() - before, candidates);
      engine.Stop();
    }
  }
}

// The cache compares row addresses, so it must keep the slabs behind its
// pointers alive: a freed slab can be reallocated at the same address with
// other rows, and a stale row would then pass for an unchanged one. Here
// every row moves twice between two requests of one worker, and the store
// drops the epoch the cache was built on in between.
TEST(ServeTopKTest, ItemCacheKeepsTheSlabsItComparesAlive) {
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    for (const size_t k : kCacheKs) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " k " +
                   std::to_string(k));
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
        ExpectExact(engine, model, data, user, rel, k);
        model.RestoreSnapshot(states[(i + 1) % 3]);
        (void)model.AcquireSnapshot();  // the served epoch leaves the store
        model.RestoreSnapshot(states[(i + 2) % 3]);
        ExpectExact(engine, model, data, user, rel, k);
      }
      engine.Stop();
    }
  }
}

/// Writes node v's rows so that its final embedding under every relation
/// is h = ½·l exactly: h^L = l, h^S = 0 and every context row 0. An
/// undeclared whole-store lease, so the next epoch copies every row.
void SetFinalEmbedding(SupaModel& model, NodeId v,
                       const std::vector<float>& l) {
  const size_t dim = static_cast<size_t>(model.config().dim);
  const size_t relations = model.graph().num_edge_types();
  store::ShardWriteLease lease = model.graph_store().LeaseAll();
  store::EmbeddingBank& bank = model.embeddings();
  std::copy(l.begin(), l.begin() + dim, bank.LongMem(v));
  std::fill(bank.ShortMem(v), bank.ShortMem(v) + dim, 0.0f);
  for (size_t r = 0; r < relations; ++r) {
    float* ctx = bank.Context(v, static_cast<EdgeTypeId>(r));
    std::fill(ctx, ctx + dim, 0.0f);
  }
}

/// Copies every row of node `from` onto node `to`, so both score the same
/// against any user, bit for bit.
void CopyRows(SupaModel& model, NodeId from, NodeId to) {
  const size_t dim = static_cast<size_t>(model.config().dim);
  const size_t relations = model.graph().num_edge_types();
  store::ShardWriteLease lease = model.graph_store().LeaseAll();
  store::EmbeddingBank& bank = model.embeddings();
  std::copy(bank.LongMem(from), bank.LongMem(from) + dim, bank.LongMem(to));
  std::copy(bank.ShortMem(from), bank.ShortMem(from) + dim,
            bank.ShortMem(to));
  for (size_t r = 0; r < relations; ++r) {
    const auto rel = static_cast<EdgeTypeId>(r);
    std::copy(bank.Context(from, rel), bank.Context(from, rel) + dim,
              bank.Context(to, rel));
  }
}

// Equal scores on both sides of the k-th place: the item at rank 5 is
// copied onto six items ranked far below it, some with smaller and some
// with larger ids, so seven items tie exactly and ids alone decide which
// of them a top-k keeps. The skip test is strict, so no tied item is
// left out on its bound.
TEST(ServeTopKTest, TiesAtTheKthPlaceBreakByNodeId) {
  const Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto model = TrainedModel(data, shards);
    ServeEngine engine(model.get(), &data);
    engine.Start();
    const NodeId user = QueryUsers(data, 1).at(0);
    const EdgeTypeId rel = data.target_relations[0];
    const auto ranked =
        BruteForceTopK(*model, data, user, rel, kAll, /*exclude_seen=*/true);
    ASSERT_GT(ranked.size(), 70u);
    for (size_t rank : {15, 25, 35, 45, 55, 65}) {
      CopyRows(*model, ranked[5].item, ranked[rank].item);
    }
    const auto tied =
        BruteForceTopK(*model, data, user, rel, 12, /*exclude_seen=*/true);
    ASSERT_EQ(tied[5].score, tied[11].score);
    ASSERT_NE(tied[4].score, tied[5].score);
    for (size_t k : {1, 5, 6, 7, 9, 11, 12, 13}) {
      ExpectExact(engine, *model, data, user, rel, k);
    }
    engine.Stop();
  }
}

// Rows the float estimate cannot hold or barely can: ±1e30 entries (a
// user row with one makes the float products overflow, so those items
// are scored exactly), denormal rows (estimates in float's subnormal
// range, held by the bound's absolute terms), and a NaN entry (a NaN
// score, which ranks below every number).
TEST(ServeTopKTest, ExtremeRowsStayExact) {
  const Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto model = TrainedModel(data, shards);
    ServeOptions options;
    options.workers = 1;
    ServeEngine engine(model.get(), &data, options);
    engine.Start();
    const size_t dim = static_cast<size_t>(model->config().dim);
    const NodeId user = QueryUsers(data, 1).at(0);
    const EdgeTypeId rel = data.target_relations[0];
    const auto ranked =
        BruteForceTopK(*model, data, user, rel, kAll, /*exclude_seen=*/true);
    ASSERT_GT(ranked.size(), 40u);
    const auto check = [&] {
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}, kAll}) {
        ExpectExact(engine, *model, data, user, rel, k);
      }
    };
    Rng rng(5);
    const auto row = [&](float scale) {
      std::vector<float> l(dim);
      for (float& x : l) x = scale * static_cast<float>(rng.Uniform(-2, 2));
      return l;
    };

    std::vector<float> huge = row(1.0f);
    huge[0] = 1e30f;
    SetFinalEmbedding(*model, ranked[30].item, huge);
    huge[0] = -1e30f;
    SetFinalEmbedding(*model, ranked[31].item, huge);
    for (size_t rank : {32, 33, 34}) {
      SetFinalEmbedding(*model, ranked[rank].item, row(1e-40f));
    }
    std::vector<float> nan_row = row(1.0f);
    nan_row[3] = std::nanf("");
    SetFinalEmbedding(*model, ranked[35].item, nan_row);
    check();

    // A user row with a 1e30 entry: ±1e30 items overflow the estimate.
    std::vector<float> user_row = row(1.0f);
    user_row[0] = 1e30f;
    SetFinalEmbedding(*model, user, user_row);
    check();

    // A denormal user row: every estimate is subnormal or zero.
    SetFinalEmbedding(*model, user, row(1e-40f));
    check();
    engine.Stop();
  }
}

// A cached row's norm bound must follow the row. Item b first scores
// 0.25 against a user h_u = (1 at elements 0, 8 and 16); then its h_v
// becomes (2^30, 1, −2^30) there. ScoreDot sums that to 1 in double, but
// FloatDot loses the 1 in float and estimates 0: only the new, larger
// norm bound lets b past item a's 0.5. A stale norm bound, or a stale
// float row, would leave the true top item out.
TEST(ServeTopKTest, ItemNormBoundFollowsItsRow) {
  const Dataset data = MakePaperDataset("taobao", 0.1, 7).value();
  for (const size_t shards : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SupaConfig config;
    config.seed = 42;
    config.shards = shards;
    SupaModel model(data, config);
    const size_t dim = static_cast<size_t>(config.dim);
    ASSERT_GT(dim, 16u);
    ServeOptions options;
    options.workers = 1;
    ServeEngine engine(&model, &data, options);
    engine.Start();
    const NodeId user = QueryUsers(data, 1).at(0);
    const EdgeTypeId rel = data.target_relations[0];
    const auto ranked =
        BruteForceTopK(model, data, user, rel, kAll, /*exclude_seen=*/true);
    ASSERT_GE(ranked.size(), 2u);
    const std::vector<float> zero(dim, 0.0f);
    for (NodeId item : engine.candidates()) {
      SetFinalEmbedding(model, item, zero);
    }
    std::vector<float> l(dim, 0.0f);
    l[0] = l[8] = l[16] = 2.0f;
    SetFinalEmbedding(model, user, l);
    const NodeId a = ranked[0].item;
    const NodeId b = ranked[1].item;
    std::fill(l.begin(), l.end(), 0.0f);
    l[0] = 1.0f;
    SetFinalEmbedding(model, a, l);
    l[0] = 0.5f;
    SetFinalEmbedding(model, b, l);
    ExpectExact(engine, model, data, user, rel, 1);

    l[0] = 0x1p31f;
    l[8] = 2.0f;
    l[16] = -0x1p31f;
    SetFinalEmbedding(model, b, l);
    const auto top = BruteForceTopK(model, data, user, rel, 1,
                                    /*exclude_seen=*/true);
    ASSERT_EQ(top.at(0).item, b);
    ASSERT_EQ(top.at(0).score, 1.0);
    ExpectExact(engine, model, data, user, rel, 1);
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
