#include "graph/metapath_miner.h"

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/synthetic.h"

namespace supa {
namespace {

TEST(MetapathMinerTest, EmptyGraphRejected) {
  store::GraphStore g(/*num_edge_types=*/1, {0, 0});
  EXPECT_FALSE(MineMetapaths(g).ok());
}

TEST(MetapathMinerTest, RecoversTaobaoSchemas) {
  // On a bipartite User-Item graph the only symmetric two-hop skeletons
  // are U-I-U and I-U-I — exactly Table IV's hand-picked schemas.
  Dataset data = MakeTaobao(0.3, 91).value();
  auto graph = data.BuildGraphRange(0, data.edges.size()).value();
  auto mined = MineMetapaths(*graph);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const NodeTypeId user = data.schema.NodeType("User").value();
  const NodeTypeId item = data.schema.NodeType("Item").value();
  bool found_uiu = false;
  bool found_iui = false;
  for (const auto& mp : mined.value()) {
    EXPECT_TRUE(mp.IsSymmetric());
    EXPECT_EQ(mp.length(), 3u);
    if (mp.head() == user && mp.steps()[0].dst_type == item) {
      found_uiu = true;
    }
    if (mp.head() == item && mp.steps()[0].dst_type == user) {
      found_iui = true;
    }
  }
  EXPECT_TRUE(found_uiu);
  EXPECT_TRUE(found_iui);
}

TEST(MetapathMinerTest, EdgeTypeSetsAreMultiplex) {
  // Taobao has four behaviours on the same skeleton; with the default
  // support threshold the mined U-I-U schema should contain several.
  Dataset data = MakeTaobao(0.3, 92).value();
  auto graph = data.BuildGraphRange(0, data.edges.size()).value();
  auto mined = MineMetapaths(*graph).value();
  const NodeTypeId user = data.schema.NodeType("User").value();
  for (const auto& mp : mined) {
    if (mp.head() != user) continue;
    int types = 0;
    for (EdgeTypeId r = 0; r < data.schema.num_edge_types(); ++r) {
      if (MaskContains(mp.steps()[0].edge_types, r)) ++types;
    }
    EXPECT_GE(types, 2) << "multiplex edge-type set expected";
  }
}

TEST(MetapathMinerTest, RecoversKuaishouAuthorSchema) {
  Dataset data = MakeKuaishou(0.2, 93).value();
  auto graph = data.BuildGraphRange(0, data.edges.size()).value();
  MinerConfig config;
  config.num_walks = 8000;
  config.skeleton_support = 0.005;
  auto mined = MineMetapaths(*graph, config);
  ASSERT_TRUE(mined.ok());
  // Must find the user-video behaviour schema; the author-upload schema
  // appears when support is low enough.
  const NodeTypeId user = data.schema.NodeType("User").value();
  const NodeTypeId video = data.schema.NodeType("Video").value();
  bool found_uvu = false;
  for (const auto& mp : mined.value()) {
    if (mp.head() == user && mp.steps()[0].dst_type == video) {
      found_uvu = true;
    }
  }
  EXPECT_TRUE(found_uvu);
}

TEST(MetapathMinerTest, MaxSchemasRespected) {
  Dataset data = MakeKuaishou(0.2, 94).value();
  auto graph = data.BuildGraphRange(0, data.edges.size()).value();
  MinerConfig config;
  config.max_schemas = 1;
  auto mined = MineMetapaths(*graph, config);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined.value().size(), 1u);
}

TEST(MetapathMinerTest, DeterministicGivenSeed) {
  Dataset data = MakeTaobao(0.2, 95).value();
  auto graph = data.BuildGraphRange(0, data.edges.size()).value();
  auto a = MineMetapaths(*graph).value();
  auto b = MineMetapaths(*graph).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MetapathMinerTest, MinedSchemasDriveSupaTraining) {
  // End-to-end future-work demo: replace Table IV's hand-written schemas
  // with mined ones and train SUPA successfully.
  Dataset data = MakeTaobao(0.15, 96).value();
  auto graph = data.BuildGraphRange(0, data.edges.size() / 2).value();
  auto mined = MineMetapaths(*graph).value();
  data.metapaths = mined;
  ASSERT_TRUE(data.Validate().ok());

  SupaConfig config;
  config.dim = 16;
  config.num_walks = 2;
  SupaModel model(data, config);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  size_t total_prop_steps = 0;
  for (size_t i = 500; i < 550; ++i) {
    auto stats = model.TrainEdge(data.edges[i]);
    ASSERT_TRUE(stats.ok());
    total_prop_steps += stats.value().prop_steps;
    ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
  }
  EXPECT_GT(total_prop_steps, 0u);
}

}  // namespace
}  // namespace supa
