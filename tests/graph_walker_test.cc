#include "graph/walker.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace supa {
namespace {

// Bipartite User-Item graph with two relations.
struct Fixture {
  Schema schema;
  std::unique_ptr<store::GraphStore> graph;
  NodeTypeId user, item;
  EdgeTypeId click, buy;

  Fixture() {
    user = schema.AddNodeType("User");
    item = schema.AddNodeType("Item");
    click = schema.AddEdgeType("click");
    buy = schema.AddEdgeType("buy");
    // 3 users (0-2), 4 items (3-6).
    graph = std::make_unique<store::GraphStore>(
        schema.num_edge_types(), std::vector<NodeTypeId>{0, 0, 0, 1, 1, 1, 1});
    // clicks
    EXPECT_TRUE(graph->AddEdge(0, 3, click, 1.0).ok());
    EXPECT_TRUE(graph->AddEdge(1, 3, click, 2.0).ok());
    EXPECT_TRUE(graph->AddEdge(1, 4, click, 3.0).ok());
    EXPECT_TRUE(graph->AddEdge(2, 5, click, 4.0).ok());
    // buys
    EXPECT_TRUE(graph->AddEdge(0, 4, buy, 5.0).ok());
    EXPECT_TRUE(graph->AddEdge(2, 6, buy, 6.0).ok());
  }
};

/// Samples one metapath walk into a fresh arena and returns its hops. The
/// arena holds one span, starting at `start`, exactly when a hop was taken.
std::vector<WalkStep> SampleSteps(const Walker& walker, NodeId start,
                                  const MetapathSchema& schema,
                                  size_t walk_len, Rng& rng) {
  WalkBuffer arena;
  const size_t hops =
      walker.SampleMetapathWalkInto(start, schema, walk_len, rng, &arena);
  EXPECT_EQ(arena.num_walks(), hops == 0 ? 0u : 1u);
  EXPECT_EQ(arena.num_steps(), hops);
  if (hops == 0) return {};
  const WalkBuffer::Span& span = arena.walk(0);
  EXPECT_EQ(span.start, start);
  return {arena.steps_of(span), arena.steps_of(span) + span.size()};
}

TEST(WalkerMetapathTest, RespectsTypeConstraints) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<WalkStep> steps =
        SampleSteps(walker, 0, mp.value(), 5, rng);
    for (size_t i = 0; i < steps.size(); ++i) {
      // Position alternates Item, User, Item, User.
      const NodeTypeId expected = (i % 2 == 0) ? f.item : f.user;
      EXPECT_EQ(f.graph->NodeType(steps[i].node), expected);
      EXPECT_EQ(steps[i].via_type, f.click);  // only clicks allowed
    }
  }
}

TEST(WalkerMetapathTest, WrongHeadTypeYieldsEmptyWalk) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(2);
  EXPECT_TRUE(SampleSteps(walker, 3 /*item*/, mp.value(), 5, rng).empty());
}

TEST(WalkerMetapathTest, StopsWhenNoAdmissibleNeighbor) {
  Fixture f;
  // Item 6 has only a buy edge; a click-only schema cannot leave it.
  auto mp = MetapathSchema::Parse("Item -{click}-> User -{click}-> Item",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(3);
  EXPECT_TRUE(SampleSteps(walker, 6, mp.value(), 5, rng).empty());
}

TEST(WalkerMetapathTest, MultiEdgeTypeMask) {
  Fixture f;
  auto mp = MetapathSchema::Parse(
      "User -{click,buy}-> Item -{click,buy}-> User", f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(4);
  std::set<EdgeTypeId> seen;
  for (int trial = 0; trial < 300; ++trial) {
    for (const WalkStep& step : SampleSteps(walker, 0, mp.value(), 3, rng)) {
      seen.insert(step.via_type);
    }
  }
  // User 0 has both a click (item 3) and a buy (item 4): both types appear.
  EXPECT_TRUE(seen.contains(f.click));
  EXPECT_TRUE(seen.contains(f.buy));
}

TEST(WalkerMetapathTest, WalkLenOneHasNoSteps) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(5);
  EXPECT_TRUE(SampleSteps(walker, 0, mp.value(), 1, rng).empty());
  EXPECT_TRUE(SampleSteps(walker, 0, mp.value(), 0, rng).empty());
}

TEST(WalkerMetapathTest, HonorsNeighborCap) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  // User 1 clicked item 3 (t=2) then item 4 (t=3). Cap 1 => only item 4
  // visible.
  f.graph->set_neighbor_cap(1);
  Walker walker(*f.graph);
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<WalkStep> steps =
        SampleSteps(walker, 1, mp.value(), 2, rng);
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps[0].node, 4u);
  }
}

TEST(WalkerUniformTest, CoversAllNeighbors) {
  Fixture f;
  Walker walker(*f.graph);
  Rng rng(7);
  std::set<NodeId> first_hops;
  for (int trial = 0; trial < 300; ++trial) {
    Walk w = walker.SampleUniformWalk(1, 2, rng);
    ASSERT_EQ(w.steps.size(), 1u);
    first_hops.insert(w.steps[0].node);
  }
  EXPECT_EQ(first_hops, (std::set<NodeId>{3, 4}));
}

TEST(WalkerUniformTest, IsolatedNodeYieldsEmptyWalk) {
  store::GraphStore g(/*num_edge_types=*/1, {0, 0});
  Walker walker(g);
  Rng rng(8);
  EXPECT_TRUE(walker.SampleUniformWalk(0, 5, rng).steps.empty());
}

TEST(WalkerNode2vecTest, LowPEncouragesReturning) {
  // Chain graph 0-1-2. With p tiny, returning to the previous node
  // dominates; with p huge, the walker pushes outward.
  store::GraphStore g(/*num_edge_types=*/1, {0, 0, 0});
  ASSERT_TRUE(g.AddEdge(0, 1, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0, 2.0).ok());
  Walker walker(g);

  int returns_low_p = 0;
  int returns_high_p = 0;
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    Walk w = walker.SampleNode2vecWalk(0, 3, /*p=*/0.01, /*q=*/1.0, rng);
    if (w.steps.size() == 2 && w.steps[1].node == 0) ++returns_low_p;
    Walk w2 = walker.SampleNode2vecWalk(0, 3, /*p=*/100.0, /*q=*/1.0, rng);
    if (w2.steps.size() == 2 && w2.steps[1].node == 0) ++returns_high_p;
  }
  EXPECT_GT(returns_low_p, returns_high_p + 100);
}

TEST(WalkerNode2vecTest, WalkStaysOnGraph) {
  Fixture f;
  Walker walker(*f.graph);
  Rng rng(10);
  for (int trial = 0; trial < 100; ++trial) {
    Walk w = walker.SampleNode2vecWalk(0, 6, 1.0, 0.5, rng);
    NodeId prev = w.start;
    for (const auto& step : w.steps) {
      // Each hop must be an actual edge.
      bool found = false;
      for (const auto& nb : f.graph->AllNeighbors(prev)) {
        if (nb.node == step.node && nb.edge_type == step.via_type) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
      prev = step.node;
    }
  }
}

}  // namespace
}  // namespace supa
