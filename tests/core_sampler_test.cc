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
  InfluencedGraph g = sampler.Sample(e.src, e.dst, rng);
  EXPECT_LE(g.from_u.size(), 4u);
  EXPECT_LE(g.from_v.size(), 4u);
  // On a warmed-up graph, the interactive nodes usually have neighbors.
  EXPECT_GT(g.from_u.size() + g.from_v.size(), 0u);
}

TEST(InfluencedGraphSamplerTest, WalksStartAtInteractiveNodes) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(3, 4);
  Rng rng(2);
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  InfluencedGraph g = sampler.Sample(e.src, e.dst, rng);
  for (const auto& w : g.from_u) EXPECT_EQ(w.start, e.src);
  for (const auto& w : g.from_v) EXPECT_EQ(w.start, e.dst);
}

TEST(InfluencedGraphSamplerTest, WalkLengthBounded) {
  Fixture f;
  const int walk_len = 5;
  InfluencedGraphSampler sampler = f.Sampler(4, walk_len);
  Rng rng(3);
  for (size_t i = f.data.edges.size() / 2;
       i < f.data.edges.size() / 2 + 50 && i < f.data.edges.size(); ++i) {
    const auto& e = f.data.edges[i];
    InfluencedGraph g = sampler.Sample(e.src, e.dst, rng);
    for (const auto& w : g.from_u) {
      EXPECT_LE(w.length(), static_cast<size_t>(walk_len));
      EXPECT_GE(w.steps.size(), 1u);
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
  InfluencedGraph g = sampler.Sample(e.src, e.dst, rng);
  // Taobao metapaths alternate User/Item, so consecutive walk nodes
  // alternate types.
  for (const auto& w : g.from_u) {
    NodeTypeId prev = f.graph->NodeType(w.start);
    for (const auto& s : w.steps) {
      const NodeTypeId cur = f.graph->NodeType(s.node);
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
  InfluencedGraph g = sampler.Sample(0, 1, rng);
  EXPECT_TRUE(g.from_u.empty());
  EXPECT_TRUE(g.from_v.empty());
  EXPECT_EQ(g.TotalSteps(), 0u);
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
  std::vector<Walk> walks;
  sampler.SampleFrom(author, rng, &walks);
  EXPECT_TRUE(walks.empty());
}

// The arena API must be a drop-in for the Walk-returning one: identical
// walks, identical u/v split, and — critically — an identical rng draw
// sequence, so switching the hot path to the arena cannot perturb
// training.
TEST(InfluencedGraphSamplerTest, ArenaSamplingMatchesWalkSampling) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(4, 4);
  WalkBuffer arena;
  for (size_t k = 0; k < 8; ++k) {
    Rng rng_a(100 + k);
    Rng rng_b(100 + k);
    const auto& e = f.data.edges[f.data.edges.size() / 2 + k];
    InfluencedGraph g = sampler.Sample(e.src, e.dst, rng_a);

    size_t u_count = 0;
    // Reused across iterations on purpose — the arena must self-clear.
    sampler.SampleInto(e.src, e.dst, rng_b, &arena, &u_count);

    ASSERT_EQ(arena.num_walks(), g.from_u.size() + g.from_v.size());
    ASSERT_EQ(u_count, g.from_u.size());
    for (size_t w = 0; w < arena.num_walks(); ++w) {
      const WalkBuffer::Span& span = arena.walk(w);
      const Walk& want = w < u_count ? g.from_u[w] : g.from_v[w - u_count];
      EXPECT_EQ(span.start, want.start);
      ASSERT_EQ(span.size(), want.steps.size());
      const WalkStep* steps = arena.steps_of(span);
      for (size_t s = 0; s < span.size(); ++s) {
        EXPECT_EQ(steps[s], want.steps[s]);
      }
    }
    // Same number of draws consumed → generators stay in lockstep.
    EXPECT_EQ(rng_a.Next(), rng_b.Next());
  }
}

TEST(InfluencedGraphSamplerTest, TotalStepsCountsAllHops) {
  Fixture f;
  InfluencedGraphSampler sampler = f.Sampler(4, 3);
  Rng rng(7);
  const auto& e = f.data.edges[f.data.edges.size() / 2];
  InfluencedGraph g = sampler.Sample(e.src, e.dst, rng);
  size_t manual = 0;
  for (const auto& w : g.from_u) manual += w.steps.size();
  for (const auto& w : g.from_v) manual += w.steps.size();
  EXPECT_EQ(g.TotalSteps(), manual);
}

}  // namespace
}  // namespace supa
