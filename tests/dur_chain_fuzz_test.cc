// Deterministic mutation fuzzing of the checkpoint-chain bytes that
// dur::ChainReader parses. The engine writes a base and three deltas; each
// trial mutates one of those files in a copy of the directory — a bit
// flip, a truncation, a splice of another link file's bytes, or a
// duplicated range — and runs Recover into a fresh model. Every trial must
// fail with a Status and leave the model equal to a freshly constructed
// one: params, m, v, Adam step and graph. A mutated base must fail
// LoadCheckpoint the same way. The seed is fixed, so every run makes the
// same mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/engine.h"
#include "dur/manifest.h"
#include "dur/recovery.h"
#include "util/rng.h"

namespace supa::dur {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

enum Mutation { kBitFlip, kTruncate, kSplice, kRepeat, kNumMutations };
const char* const kMutationNames[] = {"bit_flip", "truncate", "splice",
                                      "repeat"};

/// Applies mutation `kind` to `bytes`; `other` is another link file of the
/// same chain, the source of spliced ranges.
std::string Mutate(Mutation kind, const std::string& bytes,
                   const std::string& other, Rng& rng) {
  std::string out = bytes;
  switch (kind) {
    case kBitFlip: {
      const size_t at = rng.Index(out.size());
      out[at] = static_cast<char>(out[at] ^ (1u << rng.Index(8)));
      break;
    }
    case kTruncate:
      out.resize(rng.Index(out.size()));
      break;
    case kSplice: {
      const size_t len =
          1 + rng.Index(std::min<size_t>({256, out.size(), other.size()}));
      const size_t from = rng.Index(other.size() - len + 1);
      const size_t to = rng.Index(out.size() - len + 1);
      out.replace(to, len, other, from, len);
      break;
    }
    case kRepeat: {
      const size_t len = 1 + rng.Index(std::min<size_t>(256, out.size()));
      const size_t at = rng.Index(out.size() - len + 1);
      out.insert(at + len, bytes, at, len);
      break;
    }
    case kNumMutations:
      break;
  }
  return out;
}

class DurChainFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/supa_dur_fuzz_" + info->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override { fs::remove_all(root_); }

  SupaConfig Config() {
    SupaConfig c;
    c.dim = 8;
    c.num_walks = 2;
    c.walk_len = 3;
    c.seed = 9;
    return c;
  }

  /// A base and three deltas, written by the engine with compaction out
  /// of reach.
  void WriteChain(const std::string& dir) {
    SupaModel model(data_, Config());
    DurabilityOptions options;
    options.dir = dir;
    options.compact_threshold = 100;
    auto engine = DurabilityEngine::Attach(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    TrainerCursor cursor;
    for (size_t cut = 0; cut < 4; ++cut) {
      for (size_t i = 60 * cut; i < 60 * cut + 60; ++i) {
        ASSERT_TRUE(model.TrainEdge(data_.edges[i]).ok());
        ASSERT_TRUE(model.ObserveEdge(data_.edges[i]).ok());
      }
      cursor.next_edge_index = 60 * cut + 60;
      ASSERT_TRUE(engine.value()->OnCheckpoint(model, cursor).ok());
    }
    ASSERT_TRUE(engine.value()->Flush().ok());
  }

  /// `model` must equal a freshly constructed one: nothing was written.
  void ExpectUntouched(const SupaModel& model,
                       const SupaModel::Snapshot& fresh) {
    const SupaModel::Snapshot now = model.TakeSnapshot();
    EXPECT_TRUE(now.params == fresh.params);
    EXPECT_TRUE(now.adam.m == fresh.adam.m);
    EXPECT_TRUE(now.adam.v == fresh.adam.v);
    EXPECT_EQ(now.adam.step, fresh.adam.step);
    EXPECT_EQ(model.graph().num_edges(), 0u);
    for (NodeId v = 0; v < data_.num_nodes(); ++v) {
      ASSERT_EQ(model.graph().Degree(v), 0u) << "node " << v;
    }
  }

  std::string root_;
  Dataset data_;
};

TEST_F(DurChainFuzzTest, MutatedChainFilesFailCleanly) {
  const std::string src = root_ + "/src";
  WriteChain(src);
  auto manifest = LoadManifest(src);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::vector<ManifestLink>& links = manifest.value().links;
  ASSERT_EQ(links.size(), 4u);
  ASSERT_EQ(links[0].kind, ManifestLink::Kind::kBase);
  std::vector<std::string> files;
  for (const ManifestLink& link : links) {
    files.push_back(ReadBytes(src + "/" + link.file));
  }

  // The unmutated copy recovers: the trials fail because of the mutation.
  {
    const std::string dir = root_ + "/clean";
    fs::copy(src, dir, fs::copy_options::recursive);
    SupaModel model(data_, Config());
    auto recovered = Recover(dir, &model);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value().links_applied, 4u);
  }

  const SupaModel::Snapshot fresh = SupaModel(data_, Config()).TakeSnapshot();
  constexpr int kTrialsPerMutation = 20;
  Rng rng(0xf022);
  size_t trials = 0;
  for (size_t f = 0; f < files.size(); ++f) {
    for (int kind = 0; kind < kNumMutations; ++kind) {
      for (int t = 0; t < kTrialsPerMutation; ++t) {
        const std::string& other =
            files[(f + 1 + rng.Index(files.size() - 1)) % files.size()];
        const std::string mutated =
            Mutate(static_cast<Mutation>(kind), files[f], other, rng);
        if (mutated == files[f]) continue;
        SCOPED_TRACE(links[f].file + " " + kMutationNames[kind] + " #" +
                     std::to_string(t));
        const std::string dir = root_ + "/trial";
        fs::remove_all(dir);
        fs::copy(src, dir, fs::copy_options::recursive);
        const std::string path = dir + "/" + links[f].file;
        WriteBytes(path, mutated);

        SupaModel model(data_, Config());
        const auto recovered = Recover(dir, &model);
        EXPECT_FALSE(recovered.ok());
        ExpectUntouched(model, fresh);
        if (f == 0) {
          EXPECT_FALSE(LoadCheckpoint(path, &model).ok());
          ExpectUntouched(model, fresh);
        }
        ++trials;
      }
    }
  }
  EXPECT_GE(trials, files.size() * kNumMutations * kTrialsPerMutation - 8);
}

}  // namespace
}  // namespace supa::dur
