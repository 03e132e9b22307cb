#include "data/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "data/synthetic.h"
#include "util/tsv.h"

namespace supa {
namespace {

Dataset TinyDataset() {
  Dataset d;
  d.name = "tiny";
  d.schema.AddNodeType("User");
  d.schema.AddNodeType("Item");
  d.schema.AddEdgeType("click");
  d.node_types = {0, 0, 1, 1};
  d.edges = {{0, 2, 0, 1.0}, {1, 3, 0, 2.0}, {0, 3, 0, 3.0}};
  d.query_type = 0;
  d.target_type = 1;
  d.target_relations = {0};
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  d.schema);
  d.metapaths = {mp.value()};
  return d;
}

TEST(DatasetTest, ValidateAcceptsWellFormed) {
  Dataset d = TinyDataset();
  EXPECT_TRUE(d.Validate().ok()) << d.Validate().ToString();
}

TEST(DatasetTest, ValidateRejectsUnsortedEdges) {
  Dataset d = TinyDataset();
  std::swap(d.edges[0], d.edges[2]);
  EXPECT_EQ(d.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, ValidateRejectsOutOfRangeIds) {
  Dataset d = TinyDataset();
  d.edges.push_back({9, 0, 0, 4.0});
  EXPECT_EQ(d.Validate().code(), StatusCode::kOutOfRange);

  Dataset d2 = TinyDataset();
  d2.edges.push_back({0, 2, 5, 4.0});
  EXPECT_EQ(d2.Validate().code(), StatusCode::kOutOfRange);
}

TEST(DatasetTest, ValidateRejectsNonFiniteTimes) {
  for (double t : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    Dataset d = TinyDataset();
    d.edges.back().time = t;
    EXPECT_EQ(d.Validate().code(), StatusCode::kInvalidArgument) << t;
  }
}

TEST(DatasetTest, ValidateRejectsEmpty) {
  Dataset d;
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, TargetNodes) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.TargetNodes(), (std::vector<NodeId>{2, 3}));
}

TEST(DatasetTest, IsTargetRelation) {
  Dataset d = TinyDataset();
  EXPECT_TRUE(d.IsTargetRelation(0));
  EXPECT_FALSE(d.IsTargetRelation(1));
}

TEST(DatasetTest, NumDistinctTimestamps) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.NumDistinctTimestamps(), 3u);
  d.edges.push_back({1, 2, 0, 3.0});  // duplicate timestamp
  EXPECT_EQ(d.NumDistinctTimestamps(), 3u);
}

TEST(DatasetTest, BuildGraphRangeFromTheStart) {
  Dataset d = TinyDataset();
  auto g = d.BuildGraphRange(0, 2);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->num_edges(), 2u);
  EXPECT_EQ(g.value()->Degree(0), 1u);

  auto all = d.BuildGraphRange(0, d.edges.size());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value()->num_edges(), 3u);

  EXPECT_FALSE(d.BuildGraphRange(0, 99).ok());
}

TEST(DatasetTest, BuildGraphRange) {
  Dataset d = TinyDataset();
  auto g = d.BuildGraphRange(1, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->num_edges(), 2u);
  EXPECT_EQ(g.value()->Degree(0), 1u);  // only edge (0,3)
  EXPECT_FALSE(d.BuildGraphRange(2, 1).ok());
}

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case file name: `ctest -j` runs the cases of this fixture
    // as concurrent processes, so a shared path races.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/supa_dataset_io_" + info->name() + ".tsv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DatasetIoTest, EdgeRoundTrip) {
  Dataset d = TinyDataset();
  ASSERT_TRUE(SaveEdgesTsv(d, path_).ok());
  Dataset loaded = TinyDataset();
  loaded.edges.clear();
  ASSERT_TRUE(LoadEdgesTsv(path_, &loaded).ok());
  ASSERT_EQ(loaded.edges.size(), d.edges.size());
  for (size_t i = 0; i < d.edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i], d.edges[i]);
  }
  EXPECT_TRUE(loaded.Validate().ok());
}

TEST_F(DatasetIoTest, LoadSortsUnsortedFile) {
  std::vector<std::vector<std::string>> rows = {
      {"0", "2", "0", "5.0"}, {"1", "3", "0", "1.0"}};
  ASSERT_TRUE(WriteTsv(path_, rows).ok());
  Dataset d = TinyDataset();
  d.edges.clear();
  ASSERT_TRUE(LoadEdgesTsv(path_, &d).ok());
  EXPECT_EQ(d.edges[0].time, 1.0);
  EXPECT_EQ(d.edges[1].time, 5.0);
}

TEST_F(DatasetIoTest, LoadRejectsMalformedRows) {
  ASSERT_TRUE(WriteTsv(path_, {{"1", "2", "0"}}).ok());
  Dataset d = TinyDataset();
  EXPECT_FALSE(LoadEdgesTsv(path_, &d).ok());
}

TEST_F(DatasetIoTest, LoadRejectsUnfitIdsAndKeepsTheEdges) {
  const std::vector<std::vector<std::string>> bad_rows = {
      {"4294967296", "2", "0", "1"},
      {"0", "4294967296", "0", "1"},
      {"0", "2", "65536", "1"},
      {"0", "2", "0", "nan"},
  };
  for (const auto& bad : bad_rows) {
    // A good row first: a failed load must not leave it behind.
    ASSERT_TRUE(WriteTsv(path_, {{"1", "3", "0", "0.5"}, bad}).ok());
    Dataset d = TinyDataset();
    const std::vector<TemporalEdge> before = d.edges;
    EXPECT_EQ(LoadEdgesTsv(path_, &d).code(), StatusCode::kInvalidArgument)
        << bad[0] << " " << bad[2] << " " << bad[3];
    EXPECT_EQ(d.edges, before);
  }
}

}  // namespace
}  // namespace supa
