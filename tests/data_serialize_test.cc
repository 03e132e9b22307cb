#include "data/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synthetic.h"

namespace supa {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case file name: `ctest -j` runs the cases of this fixture
    // as concurrent processes, so a shared path races.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/supa_dataset_" + info->name() + ".tsv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads kTinyFile with the first `from` replaced by `to`.
  Status LoadPatched(const std::string& from, const std::string& to) {
    std::string text = kTinyFile;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::ofstream(path_) << text;
    return LoadDataset(path_).status();
  }

  static constexpr char kTinyFile[] =
      "supa-dataset v1\n"
      "name\ttiny\n"
      "node_types\tUser\tItem\n"
      "edge_types\tclick\n"
      "node_runs\t0:2\t1:2\n"
      "query_type\t0\n"
      "target_type\t1\n"
      "target_relations\t0\n"
      "edges\t2\n"
      "0\t2\t0\t1\n"
      "1\t3\t0\t2\n";

  std::string path_;
};

TEST_F(SerializeTest, RoundTripAllPaperDatasets) {
  for (const char* name :
       {"uci", "amazon", "lastfm", "movielens", "taobao", "kuaishou"}) {
    auto data = MakePaperDataset(name, 0.1, 11);
    ASSERT_TRUE(data.ok()) << name;
    ASSERT_TRUE(SaveDataset(data.value(), path_).ok()) << name;
    auto loaded = LoadDataset(path_);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();

    const Dataset& a = data.value();
    const Dataset& b = loaded.value();
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.node_types, b.node_types);
    EXPECT_EQ(a.query_type, b.query_type);
    EXPECT_EQ(a.target_type, b.target_type);
    EXPECT_EQ(a.target_relations, b.target_relations);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t i = 0; i < a.edges.size(); ++i) {
      EXPECT_EQ(a.edges[i].src, b.edges[i].src);
      EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
      EXPECT_EQ(a.edges[i].type, b.edges[i].type);
      EXPECT_NEAR(a.edges[i].time, b.edges[i].time, 1e-6 * a.edges[i].time);
    }
    ASSERT_EQ(a.metapaths.size(), b.metapaths.size());
    for (size_t i = 0; i < a.metapaths.size(); ++i) {
      EXPECT_EQ(a.metapaths[i], b.metapaths[i]) << name;
    }
    EXPECT_EQ(a.schema.num_node_types(), b.schema.num_node_types());
    EXPECT_EQ(a.schema.num_edge_types(), b.schema.num_edge_types());
  }
}

TEST_F(SerializeTest, RejectsWrongMagic) {
  std::ofstream out(path_);
  out << "something else\n";
  out.close();
  EXPECT_FALSE(LoadDataset(path_).ok());
}

TEST_F(SerializeTest, RejectsTruncatedEdges) {
  auto data = MakeTaobao(0.05, 12).value();
  ASSERT_TRUE(SaveDataset(data, path_).ok());
  // Chop off the last few lines.
  std::ifstream in(path_);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 40));
  out.close();
  EXPECT_FALSE(LoadDataset(path_).ok());
}

TEST_F(SerializeTest, TinyFileLoads) {
  EXPECT_TRUE(LoadPatched("name\ttiny", "name\ttiny").ok());
}

TEST_F(SerializeTest, BareHeaderLinesAreRejected) {
  for (const char* line : {"query_type\t0\n", "target_type\t1\n",
                           "edges\t2\n"}) {
    const std::string bare =
        std::string(line).substr(0, std::string(line).find('\t')) + "\n";
    EXPECT_EQ(LoadPatched(line, bare).code(), StatusCode::kInvalidArgument)
        << bare;
  }
}

TEST_F(SerializeTest, HugeEdgeCountIsRejectedWithoutAllocating) {
  EXPECT_EQ(LoadPatched("edges\t2", "edges\t4611686018427387904").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, NodeIdBeyondNodeIdIsRejected) {
  // Narrowed, 4294967296 would load as node 0 and pass Validate.
  EXPECT_EQ(LoadPatched("0\t2\t0\t1", "4294967296\t2\t0\t1").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, EdgeTypeBeyondEdgeTypeIdIsRejected) {
  EXPECT_EQ(LoadPatched("0\t2\t0\t1", "0\t2\t65536\t1").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, HeaderTypeBeyondNodeTypeIdIsRejected) {
  EXPECT_EQ(LoadPatched("query_type\t0", "query_type\t65536").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, NanTimestampIsRejected) {
  EXPECT_EQ(LoadPatched("0\t2\t0\t1", "0\t2\t0\tnan").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, NodeRunsBeyondNodeIdAreRejectedWithoutAllocating) {
  EXPECT_EQ(LoadPatched("0:2\t1:2", "0:4294967296").code(),
            StatusCode::kInvalidArgument);
  // The bound is on |V| across runs, checked before a run is appended.
  EXPECT_EQ(LoadPatched("0:2\t1:2", "0:2\t1:4294967294").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadDataset("/nonexistent/x.tsv").status().code(),
            StatusCode::kIOError);
}

TEST_F(SerializeTest, SaveRejectsInvalidDataset) {
  Dataset bad;  // no types, no nodes
  EXPECT_FALSE(SaveDataset(bad, path_).ok());
}

}  // namespace
}  // namespace supa
