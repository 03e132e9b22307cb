// Durability file formats: SUPACP01 base checkpoints (CRC footer, footer
// required, corruption fuzzing), SUPADL01 deltas (round trip, apply,
// shard invariance), the manifest/cursor codec, and the compaction
// byte-identity contract (base + deltas folded == a directly saved
// checkpoint).

#include "dur/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/synthetic.h"
#include "dur/delta_writer.h"
#include "dur/manifest.h"
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

bool SnapshotsEqual(const SupaModel::Snapshot& a,
                    const SupaModel::Snapshot& b) {
  return a.params == b.params && a.adam.m == b.adam.m &&
         a.adam.v == b.adam.v && a.adam.step == b.adam.step;
}

class DurCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/supa_dur_ckpt_" + info->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    data_ = MakeTaobao(0.15, 81).value();
  }
  void TearDown() override { fs::remove_all(dir_); }

  SupaConfig Config(size_t shards = 0) {
    SupaConfig c;
    c.dim = 16;
    c.num_walks = 2;
    c.walk_len = 3;
    c.seed = 3;
    c.shards = shards;
    return c;
  }

  void TrainSome(SupaModel& model, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(model.TrainEdge(data_.edges[i]).ok());
      ASSERT_TRUE(model.ObserveEdge(data_.edges[i]).ok());
    }
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  Dataset data_;
};

TEST_F(DurCheckpointTest, BaseFileRoundTrip) {
  SupaModel model(data_, Config());
  TrainSome(model, 0, 300);
  const LogicalCheckpoint lc = GatherLogicalState(model);
  ASSERT_TRUE(WriteBaseFile(Path("base.bin"), lc).ok());

  auto loaded = ReadBaseFile(Path("base.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().meta.param_count, lc.meta.param_count);
  EXPECT_EQ(loaded.value().meta.adam_step, lc.meta.adam_step);
  EXPECT_EQ(loaded.value().params, lc.params);
  EXPECT_EQ(loaded.value().m, lc.m);
  EXPECT_EQ(loaded.value().v, lc.v);
}

TEST_F(DurCheckpointTest, FooterlessFileIsRejected) {
  SupaModel model(data_, Config());
  TrainSome(model, 0, 200);
  ASSERT_TRUE(SaveCheckpoint(model, Path("full.bin")).ok());
  // Strip exactly the 16-byte CRC footer: the header and body are intact,
  // but nothing vouches for them. Recovery reads bases through the same
  // function; TruncationFuzzFailsCleanly checks that LoadCheckpoint leaves
  // the model untouched at this cut.
  std::string bytes = ReadBytes(Path("full.bin"));
  ASSERT_GT(bytes.size(), 16u);
  WriteBytes(Path("footerless.bin"), bytes.substr(0, bytes.size() - 16));

  auto read = ReadBaseFile(Path("footerless.bin"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError)
      << read.status().ToString();
}

TEST_F(DurCheckpointTest, TruncationFuzzFailsCleanly) {
  SupaModel model(data_, Config());
  TrainSome(model, 0, 150);
  ASSERT_TRUE(SaveCheckpoint(model, Path("full.bin")).ok());
  const std::string bytes = ReadBytes(Path("full.bin"));

  SupaModel victim(data_, Config());
  TrainSome(victim, 0, 50);
  const SupaModel::Snapshot before = victim.TakeSnapshot();

  // Every truncation length — header-splitting, body-splitting, and
  // footer-splitting cuts, and the cut that drops exactly the footer — must
  // fail with a descriptive Status and leave the destination model
  // untouched.
  std::vector<size_t> cuts = {0, 1, 7, 8, 55, 56, 57};
  for (size_t step = 64; step < bytes.size(); step += bytes.size() / 23) {
    cuts.push_back(step);
  }
  cuts.push_back(bytes.size() - 17);
  cuts.push_back(bytes.size() - 16);
  cuts.push_back(bytes.size() - 15);
  cuts.push_back(bytes.size() - 1);
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    WriteBytes(Path("cut.bin"), bytes.substr(0, cut));
    const Status st = LoadCheckpoint(Path("cut.bin"), &victim);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_FALSE(st.ToString().empty());
    EXPECT_TRUE(SnapshotsEqual(victim.TakeSnapshot(), before))
        << "cut=" << cut << " partially mutated the model";
  }
}

TEST_F(DurCheckpointTest, BitFlipFuzzFailsCleanly) {
  SupaModel model(data_, Config());
  TrainSome(model, 0, 150);
  ASSERT_TRUE(SaveCheckpoint(model, Path("full.bin")).ok());
  const std::string bytes = ReadBytes(Path("full.bin"));

  SupaModel victim(data_, Config());
  const SupaModel::Snapshot before = victim.TakeSnapshot();

  // With the CRC footer present, any single bit flip — header, body, or
  // footer — must be rejected before the model is touched.
  Rng rng(0xf1a5);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t byte = rng.Index(bytes.size());
    const uint8_t mask = static_cast<uint8_t>(1u << rng.Index(8));
    std::string flipped = bytes;
    flipped[byte] = static_cast<char>(flipped[byte] ^ mask);
    WriteBytes(Path("flip.bin"), flipped);
    const Status st = LoadCheckpoint(Path("flip.bin"), &victim);
    EXPECT_FALSE(st.ok()) << "byte=" << byte << " mask=" << int(mask);
    EXPECT_TRUE(SnapshotsEqual(victim.TakeSnapshot(), before))
        << "byte=" << byte << " partially mutated the model";
  }
}

TEST_F(DurCheckpointTest, DeltaRoundTripAndApply) {
  SupaModel model(data_, Config());
  TrainSome(model, 0, 200);
  model.optimizer().set_checkpoint_tracking(true);
  model.optimizer().ClearCheckpointDirty();
  const LogicalCheckpoint base = GatherLogicalState(model);

  TrainSome(model, 200, 320);
  auto captured = CaptureDirtyRows(model);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const DeltaCapture& delta = captured.value();
  EXPECT_GT(delta.num_rows(), 0u);
  // O(dirty), not O(everything): 120 edges touch a small neighborhood.
  EXPECT_LT(delta.num_floats(), base.params.size());
  for (size_t i = 1; i < delta.offsets.size(); ++i) {
    EXPECT_LT(delta.offsets[i - 1], delta.offsets[i]);
  }

  ASSERT_TRUE(WriteDeltaFile(Path("d.delta"), delta).ok());
  auto reread = ReadDeltaFile(Path("d.delta"));
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread.value().offsets, delta.offsets);
  EXPECT_EQ(reread.value().lens, delta.lens);
  EXPECT_EQ(reread.value().params, delta.params);
  EXPECT_EQ(reread.value().m, delta.m);
  EXPECT_EQ(reread.value().v, delta.v);

  // base ⊕ delta must equal the live model's full state.
  LogicalCheckpoint patched = base;
  ASSERT_TRUE(ApplyDelta(reread.value(), &patched).ok());
  const LogicalCheckpoint now = GatherLogicalState(model);
  EXPECT_EQ(patched.meta.adam_step, now.meta.adam_step);
  EXPECT_EQ(patched.params, now.params);
  EXPECT_EQ(patched.m, now.m);
  EXPECT_EQ(patched.v, now.v);
}

TEST_F(DurCheckpointTest, DeltaAfterBestRollbackHoldsOnlyRowsWrittenSinceCut) {
  // Algorithm 1 between two cuts: Φ_best is re-taken, a cut happens, a
  // burst trains, and RestoreBest rolls it back. The next delta must hold
  // exactly the rows written since the cut (every row written back is one
  // of them) and no row that was untouched since the cut — rows written
  // after an earlier take but before the cut stay out. The bursts are
  // short, so each touches a small share of the rows.
  SupaModel model(data_, Config());
  TrainSome(model, 0, 150);
  model.optimizer().set_checkpoint_tracking(true);
  model.TakeBest();
  TrainSome(model, 150, 165);
  model.TakeBest();
  model.optimizer().ClearCheckpointDirty();  // the cut
  const LogicalCheckpoint at_cut = GatherLogicalState(model);
  TrainSome(model, 200, 215);
  const LogicalCheckpoint after_burst = GatherLogicalState(model);
  ASSERT_TRUE(model.RestoreBest().ok());

  // Rows written since the cut: those whose params, m or v moved.
  const size_t dim = at_cut.meta.dim;
  const size_t alpha_begin =
      at_cut.meta.param_count - at_cut.meta.num_node_types;
  std::vector<uint64_t> written;
  for (size_t off = 0; off < at_cut.meta.param_count;
       off += off < alpha_begin ? dim : 1) {
    const size_t len = off < alpha_begin ? dim : 1;
    for (size_t k = off; k < off + len; ++k) {
      if (at_cut.params[k] != after_burst.params[k] ||
          at_cut.m[k] != after_burst.m[k] || at_cut.v[k] != after_burst.v[k]) {
        written.push_back(off);
        break;
      }
    }
  }
  ASSERT_FALSE(written.empty());

  auto captured = CaptureDirtyRows(model);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  EXPECT_EQ(captured.value().offsets, written);

  // The rollback lands on the cut's state, and the delta carries it.
  LogicalCheckpoint patched = at_cut;
  ASSERT_TRUE(ApplyDelta(captured.value(), &patched).ok());
  const LogicalCheckpoint now = GatherLogicalState(model);
  EXPECT_EQ(patched.meta.adam_step, now.meta.adam_step);
  EXPECT_EQ(patched.params, now.params);
  EXPECT_EQ(patched.m, now.m);
  EXPECT_EQ(patched.v, now.v);
  EXPECT_EQ(now.params, at_cut.params);
}

TEST_F(DurCheckpointTest, CompactedChainIsByteIdenticalToFreshSave) {
  // The compaction contract: folding base + deltas and writing the result
  // as a base file yields the same bytes as SaveCheckpoint on the live
  // model. Exercised here over a two-delta chain.
  SupaModel model(data_, Config());
  TrainSome(model, 0, 100);
  model.optimizer().set_checkpoint_tracking(true);
  model.optimizer().ClearCheckpointDirty();
  LogicalCheckpoint state = GatherLogicalState(model);

  for (int leg = 0; leg < 2; ++leg) {
    const size_t begin = 100 + 80 * static_cast<size_t>(leg);
    TrainSome(model, begin, begin + 80);
    auto delta = CaptureDirtyRows(model);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    model.optimizer().ClearCheckpointDirty();
    ASSERT_TRUE(ApplyDelta(delta.value(), &state).ok());
  }

  ASSERT_TRUE(WriteBaseFile(Path("compacted.bin"), state).ok());
  ASSERT_TRUE(SaveCheckpoint(model, Path("fresh.bin")).ok());
  EXPECT_EQ(ReadBytes(Path("compacted.bin")), ReadBytes(Path("fresh.bin")));
}

TEST_F(DurCheckpointTest, DeltaBytesAreShardInvariant) {
  // Deltas are keyed by logical offsets, so the file bytes must not
  // depend on where rows physically live (DESIGN.md §11 extended to §16).
  std::vector<std::string> files;
  for (const size_t shards : {1u, 4u}) {
    SupaModel model(data_, Config(shards));
    TrainSome(model, 0, 150);
    model.optimizer().set_checkpoint_tracking(true);
    model.optimizer().ClearCheckpointDirty();
    TrainSome(model, 150, 250);
    auto delta = CaptureDirtyRows(model);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    const std::string path =
        Path("shards" + std::to_string(shards) + ".delta");
    ASSERT_TRUE(WriteDeltaFile(path, delta.value()).ok());
    const std::string base_path =
        Path("shards" + std::to_string(shards) + ".base");
    ASSERT_TRUE(SaveCheckpoint(model, base_path).ok());
    files.push_back(ReadBytes(path));
    files.push_back(ReadBytes(base_path));
  }
  EXPECT_EQ(files[0], files[2]) << "delta bytes differ across shard counts";
  EXPECT_EQ(files[1], files[3]) << "base bytes differ across shard counts";
}

TEST_F(DurCheckpointTest, CursorCodecRoundTrips) {
  TrainerCursor cursor;
  cursor.wal_seq = 0x0123456789abcdefULL;
  cursor.next_edge_index = 42;
  cursor.batches_done = 7;
  Rng model_rng(11), valid_rng(22);
  for (int i = 0; i < 5; ++i) model_rng.Next();
  (void)model_rng.Gaussian();  // engage the cached Box–Muller half
  for (int i = 0; i < 3; ++i) valid_rng.Next();
  cursor.model_rng = model_rng.state();
  cursor.valid_rng = valid_rng.state();

  const std::string hex = EncodeCursor(cursor);
  TrainerCursor decoded;
  ASSERT_TRUE(DecodeCursor(hex, &decoded));
  EXPECT_EQ(decoded.wal_seq, cursor.wal_seq);
  EXPECT_EQ(decoded.next_edge_index, cursor.next_edge_index);
  EXPECT_EQ(decoded.batches_done, cursor.batches_done);

  // The decoded RNG state must continue the exact stream, cached Gaussian
  // half included.
  Rng resumed(0);
  resumed.set_state(decoded.model_rng);
  EXPECT_EQ(resumed.Gaussian(), model_rng.Gaussian());
  EXPECT_EQ(resumed.Next(), model_rng.Next());

  TrainerCursor reject;
  EXPECT_FALSE(DecodeCursor(hex.substr(1), &reject));  // wrong length
  std::string bad = hex;
  bad[3] = 'g';  // not a hex nibble
  EXPECT_FALSE(DecodeCursor(bad, &reject));
}

TEST_F(DurCheckpointTest, ManifestRoundTrips) {
  auto missing = LoadManifest(dir_ + "/no_such");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  Manifest manifest;
  ManifestLink base;
  base.kind = ManifestLink::Kind::kBase;
  base.file = "ckpt-0000000000000000.base";
  base.adam_step = 100;
  base.wal_seq = 512;
  base.cursor.wal_seq = 512;
  base.cursor.next_edge_index = 512;
  base.cursor.batches_done = 1;
  base.cursor.model_rng = Rng(5).state();
  base.cursor.valid_rng = Rng(6).state();
  ManifestLink delta = base;
  delta.kind = ManifestLink::Kind::kDelta;
  delta.file = "ckpt-0000000000000001.delta";
  delta.adam_step = 180;
  delta.wal_seq = 1024;
  manifest.links = {base, delta};

  ASSERT_TRUE(SaveManifest(dir_, manifest).ok());
  auto loaded = LoadManifest(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().links.size(), 2u);
  EXPECT_EQ(loaded.value().links[0].kind, ManifestLink::Kind::kBase);
  EXPECT_EQ(loaded.value().links[0].file, base.file);
  EXPECT_EQ(loaded.value().links[0].adam_step, 100u);
  EXPECT_EQ(loaded.value().links[1].kind, ManifestLink::Kind::kDelta);
  EXPECT_EQ(loaded.value().links[1].wal_seq, 1024u);
  EXPECT_EQ(loaded.value().links[1].cursor.next_edge_index, 512u);

  // A manifest whose chain does not start with a base is unusable.
  Manifest headless;
  headless.links = {delta};
  ASSERT_TRUE(SaveManifest(dir_, headless).ok());
  EXPECT_FALSE(LoadManifest(dir_).ok());
}

}  // namespace
}  // namespace supa::dur
