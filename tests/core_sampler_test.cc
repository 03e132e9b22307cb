#include "core/sampler.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace supa {
namespace {

struct Fixture {
  Dataset data;
  std::unique_ptr<store::GraphStore> graph;

  explicit Fixture(double scale = 0.2) {
    data = MakeTaobao(scale, 11).value();
    // Load the first half of the stream.
    graph = data.BuildGraphRange(0, data.edges.size() / 2).value();
  }

  InfluencedGraphSampler Sampler(int num_walks, int walk_len) const {
    return InfluencedGraphSampler(*graph, data.schema.num_node_types(),
                                  data.metapaths, num_walks, walk_len);
  }
};

TEST(InfluencedGraphSamplerTest, SamplesUpToKWalksPerSide) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(/*num_walks=*/4, /*walk_len=*/3);
  Rng rng(1);
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  WalkBuffer arena;
  size_t u_count = 0;
  sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
  EXPECT_LE(u_count, 4u);
  EXPECT_LE(arena.num_walks() - u_count, 4u);
  // On a warmed-up graph, the interactive nodes usually have neighbors.
  EXPECT_GT(arena.num_walks(), 0u);
}

TEST(InfluencedGraphSamplerTest, WalksStartAtInteractiveNodes) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(3, 4);
  Rng rng(2);
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  WalkBuffer arena;
  size_t u_count = 0;
  sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
  for (size_t w = 0; w < arena.num_walks(); ++w) {
    EXPECT_EQ(arena.walk(w).start, w < u_count ? e.src : e.dst);
  }
}

TEST(InfluencedGraphSamplerTest, WalkLengthBounded) {
  Fixture f;
  const int walk_len = 5;
  InfluencedGraphSampler sampler = f.Sampler(4, walk_len);
  Rng rng(3);
  WalkBuffer arena;
  size_t u_count = 0;
  for (size_t i = f.data.edges.size() / 2;
       i < f.data.edges.size() / 2 + 50 && i < f.data.edges.size(); ++i) {
    const auto& e = f.data.edges[i];
    sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
    for (size_t w = 0; w < arena.num_walks(); ++w) {
      // |p| counts the start node; zero-hop walks are omitted.
      EXPECT_LE(arena.walk(w).size() + 1, static_cast<size_t>(walk_len));
      EXPECT_GE(arena.walk(w).size(), 1u);
    }
  }
}

TEST(InfluencedGraphSamplerTest, StepsFollowMetapathTypes) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(4, 4);
  Rng rng(4);
  const NodeTypeId user = f.data.schema.NodeType("User").value();
  const NodeTypeId item = f.data.schema.NodeType("Item").value();
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  WalkBuffer arena;
  size_t u_count = 0;
  sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
  // Taobao metapaths alternate User/Item, so consecutive walk nodes
  // alternate types.
  for (size_t w = 0; w < arena.num_walks(); ++w) {
    const WalkBuffer::Span& span = arena.walk(w);
    const WalkStep* steps = arena.steps_of(span);
    NodeTypeId prev = f.graph->NodeType(span.start);
    for (size_t s = 0; s < span.size(); ++s) {
      const NodeTypeId cur = f.graph->NodeType(steps[s].node);
      EXPECT_NE(cur, prev);
      EXPECT_TRUE(cur == user || cur == item);
      prev = cur;
    }
  }
}

TEST(InfluencedGraphSamplerTest, IsolatedNodeYieldsNoPaths) {
  Dataset data = MakeTaobao(0.2, 12).value();
  auto graph = data.BuildGraphRange(0, 0).value();  // empty graph
  InfluencedGraphSampler sampler(*graph, data.schema.num_node_types(),
                                 data.metapaths, 4, 3);
  Rng rng(5);
  WalkBuffer arena;
  size_t u_count = 7;
  sampler.SampleInto(0, 1, rng, &arena, &u_count);
  EXPECT_EQ(u_count, 0u);
  EXPECT_EQ(arena.num_walks(), 0u);
  EXPECT_EQ(arena.num_steps(), 0u);
}

TEST(InfluencedGraphSamplerTest, NodeTypeWithoutSchemaGetsNoPaths) {
  // Kuaishou metapaths exist for all three types, but if we restrict the
  // schema set to user-headed paths only, an author start yields nothing.
  Dataset data = MakeKuaishou(0.1, 13).value();
  auto graph = data.BuildGraphRange(0, data.edges.size() / 2).value();
  std::vector<MetapathSchema> user_only = {data.metapaths[0]};
  ASSERT_EQ(user_only[0].head(), data.schema.NodeType("User").value());
  InfluencedGraphSampler sampler(*graph, data.schema.num_node_types(),
                                 user_only, 4, 3);
  Rng rng(6);
  const NodeId author = data.num_nodes() - 1;  // authors are the last block
  ASSERT_EQ(data.node_types[author], data.schema.NodeType("Author").value());
  WalkBuffer arena;
  sampler.SampleFromInto(author, rng, &arena);
  EXPECT_EQ(arena.num_walks(), 0u);
}

// The trainer reuses one arena across edges, so a reused arena must hold
// exactly what a fresh one would: identical walks, identical u/v split,
// and an identical rng draw sequence, whatever it held before.
TEST(InfluencedGraphSamplerTest, ReusedArenaMatchesFreshArena) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(4, 4);
  WalkBuffer reused;
  size_t reused_u_count = 0;
  // Leave a larger influenced graph behind first.
  Rng warm(99);
  InfluencedGraphSampler wide = f.Sampler(16, 6);
  const auto& first = f.data.edges[f.data.edges.size() / 2];
  wide.SampleInto(first.src, first.dst, warm, &reused, &reused_u_count);
  ASSERT_GT(reused.num_walks(), 0u);
  for (size_t k = 0; k < 8; ++k) {
    Rng rng_fresh(100 + k);
    Rng rng_reused(100 + k);
    const auto& e = f.data.edges[f.data.edges.size() / 2 + k];
    WalkBuffer fresh;
    size_t fresh_u_count = 0;
    sampler.SampleInto(e.src, e.dst, rng_fresh, &fresh, &fresh_u_count);
    sampler.SampleInto(e.src, e.dst, rng_reused, &reused, &reused_u_count);

    ASSERT_EQ(reused.num_walks(), fresh.num_walks());
    ASSERT_EQ(reused.num_steps(), fresh.num_steps());
    ASSERT_EQ(reused_u_count, fresh_u_count);
    for (size_t w = 0; w < fresh.num_walks(); ++w) {
      const WalkBuffer::Span& want = fresh.walk(w);
      const WalkBuffer::Span& got = reused.walk(w);
      EXPECT_EQ(got.start, want.start);
      ASSERT_EQ(got.size(), want.size());
      for (size_t s = 0; s < want.size(); ++s) {
        EXPECT_EQ(reused.steps_of(got)[s], fresh.steps_of(want)[s]);
      }
    }
    // Same number of draws consumed → generators stay in lockstep.
    EXPECT_EQ(rng_fresh.Next(), rng_reused.Next());
  }
}

TEST(InfluencedGraphSamplerTest, TotalStepsCountsAllHops) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(4, 3);
  Rng rng(7);
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  obs::Counter steps_counter =
      obs::MetricsRegistry::Global().GetCounter("sampler.walk_steps");
  const uint64_t counted_before = steps_counter.Value();
  WalkBuffer arena;
  size_t u_count = 0;
  sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
  size_t manual = 0;
  for (size_t w = 0; w < arena.num_walks(); ++w) {
    manual += arena.walk(w).size();
  }
  EXPECT_GT(manual, 0u);
  EXPECT_EQ(arena.num_steps(), manual);
  EXPECT_EQ(steps_counter.Value() - counted_before, manual);
}

}  // namespace
}  // namespace supa
