// Durability file formats: SUPACP01 base checkpoints (CRC footer, footer
// required, corruption fuzzing), SUPADL01 deltas (round trip, apply,
// shard invariance, row-table checks), the chain reader's streamed load
// against the chain folded in memory, the manifest/cursor codec, and the
// compaction byte-identity contract (the engine's compacted base == a
// directly saved checkpoint).

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
#include "dur/chain_reader.h"
#include "dur/delta_writer.h"
#include "dur/engine.h"
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
  // The compaction contract, through the engine's own path: with a
  // threshold of 2, the third delta makes the writer stream base + 3
  // deltas into a fresh base, whose bytes must equal SaveCheckpoint at
  // that cut, at any shard count.
  for (const size_t shards : {1u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = Path("engine" + std::to_string(shards));
    SupaModel model(data_, Config(shards));
    DurabilityOptions options;
    options.dir = dir;
    options.compact_threshold = 2;
    auto engine = DurabilityEngine::Attach(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    TrainerCursor cursor;
    for (size_t cut = 0; cut < 4; ++cut) {
      TrainSome(model, 80 * cut, 80 * cut + 80);
      cursor.next_edge_index = 80 * cut + 80;
      ASSERT_TRUE(engine.value()->OnCheckpoint(model, cursor).ok());
    }
    ASSERT_TRUE(engine.value()->Flush().ok());

    auto manifest = engine.value()->CurrentManifest();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_EQ(manifest.value().links.size(), 1u);
    const ManifestLink& link = manifest.value().links[0];
    EXPECT_EQ(link.kind, ManifestLink::Kind::kBase);
    EXPECT_NE(link.file, "ckpt-0000000000000000.base") << "never compacted";
    EXPECT_EQ(link.adam_step, model.optimizer().step_count());

    ASSERT_TRUE(SaveCheckpoint(model, Path("fresh.bin")).ok());
    EXPECT_EQ(ReadBytes(dir + "/" + link.file), ReadBytes(Path("fresh.bin")));
  }
}

TEST_F(DurCheckpointTest, StreamedLoadMatchesTheMaterialisedChain) {
  // A chain streamed into a model through ChainReader must equal the same
  // chain folded in memory (ReadBaseFile + ApplyDelta), compared through
  // GatherLogicalState. The state spans four chunks and a bit, and its
  // 24-float rows do not divide a chunk, so chunk boundaries fall inside
  // rows both in the reader and in the 8-shard scatter.
  constexpr uint64_t kChunk = ChainReader::kChunkFloats;
  const Dataset big = MakeTaobao(3.0, 81).value();
  for (const size_t shards : {1u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SupaConfig config = Config(shards);
    config.dim = 24;
    SupaModel model(big, config);
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(model.TrainEdge(big.edges[i]).ok());
      ASSERT_TRUE(model.ObserveEdge(big.edges[i]).ok());
    }
    const LogicalCheckpoint base = GatherLogicalState(model);
    ASSERT_TRUE(WriteBaseFile(Path("s.base"), base).ok());
    const uint64_t total = base.meta.param_count;
    const uint64_t alpha = total - base.meta.num_node_types;
    const uint32_t dim = static_cast<uint32_t>(base.meta.dim);
    ASSERT_GT(total, 4 * kChunk + 16) << "the state must span several chunks";
    ASSERT_NE(kChunk % dim, 0u);
    ASSERT_GE(base.meta.num_node_types, 2u);

    // Rows are (logical offset, length); each delta writes recognisable
    // values derived from `tag`.
    using Rows = std::vector<std::pair<uint64_t, uint32_t>>;
    auto delta = [&](uint64_t step, float tag, const Rows& rows) {
      DeltaCapture d;
      d.adam_step = step;
      d.param_count = total;
      for (const auto& [off, len] : rows) {
        d.offsets.push_back(off);
        d.lens.push_back(len);
        for (uint32_t k = 0; k < len; ++k) {
          d.params.push_back(tag + static_cast<float>(k));
          d.m.push_back(-tag - static_cast<float>(k));
          d.v.push_back(2 * tag + static_cast<float>(k));
        }
      }
      return d;
    };
    const uint64_t row = 7 * dim;  // rewritten by every delta of a case
    const uint32_t wide = static_cast<uint32_t>(kChunk + 10);
    struct Case {
      const char* name;
      std::vector<DeltaCapture> deltas;
    };
    const std::vector<Case> cases = {
        {"no_deltas", {}},
        {"newest_write_wins",
         {delta(11, 1.0f, {{row, dim}, {3 * kChunk, dim}}),
          delta(12, 2.0f, {{row, dim}}),
          delta(13, 3.0f, {{0, dim}, {row, dim}, {total - dim - 1, dim}})}},
        {"alpha_tail", {delta(21, 5.0f, {{alpha - dim, dim},
                                         {alpha, 1},
                                         {total - 1, 1}})}},
        {"chunk_boundaries",
         {delta(31, 6.0f, {{kChunk - dim, dim},    // ends on a boundary
                           {kChunk, dim},          // starts on it
                           {2 * kChunk - 3, dim},  // straddles one
                           {3 * kChunk - 5, wide}}),  // spans a chunk
          delta(32, 7.0f, {{kChunk - 1, 2}, {2 * kChunk, 1}})}},
        {"empty_delta",
         {delta(41, 8.0f, {{row, dim}}), delta(42, 0.0f, {}),
          delta(43, 9.0f, {{row + dim, dim}})}},
    };

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      LogicalCheckpoint want = ReadBaseFile(Path("s.base")).value();
      std::vector<std::string> files;
      for (size_t i = 0; i < c.deltas.size(); ++i) {
        files.push_back(Path(std::string(c.name) + std::to_string(i)));
        ASSERT_TRUE(WriteDeltaFile(files.back(), c.deltas[i]).ok());
        ASSERT_TRUE(ApplyDelta(ReadDeltaFile(files.back()).value(), &want).ok());
      }
      auto chain = ChainReader::Open(Path("s.base"), files);
      ASSERT_TRUE(chain.ok()) << chain.status().ToString();
      EXPECT_EQ(chain.value().meta().adam_step, want.meta.adam_step);
      SupaModel loaded(big, config);
      ASSERT_TRUE(VerifyChainFor(chain.value(), loaded).ok());
      ASSERT_TRUE(LoadChainInto(chain.value(), &loaded).ok());
      const LogicalCheckpoint got = GatherLogicalState(loaded);
      EXPECT_EQ(got.meta.adam_step, want.meta.adam_step);
      EXPECT_TRUE(got.params == want.params);
      EXPECT_TRUE(got.m == want.m);
      EXPECT_TRUE(got.v == want.v);
    }
  }
}

TEST_F(DurCheckpointTest, FileChangedBetweenPassesFailsTheLoadPass) {
  // The one failure after the model is touched: a file that changes
  // between the verify and load passes fails the second pass's CRC check,
  // and the error says the model is partly written.
  SupaModel model(data_, Config());
  TrainSome(model, 0, 100);
  ASSERT_TRUE(SaveCheckpoint(model, Path("full.bin")).ok());
  auto chain = ChainReader::Open(Path("full.bin"), {});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  SupaModel target(data_, Config());
  ASSERT_TRUE(VerifyChainFor(chain.value(), target).ok());
  {
    // Rewrite one body byte in place: the reader's descriptor sees it.
    std::fstream file(Path("full.bin"),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(100);
    const char byte = static_cast<char>(file.get() ^ 0x10);
    file.seekp(100);
    file.put(byte);
  }
  const Status st = LoadChainInto(chain.value(), &target);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("partly written"), std::string::npos)
      << st.ToString();
}

TEST_F(DurCheckpointTest, CompactionOfACorruptChainLeavesNoPartialBase) {
  // An input CRC mismatch during compaction removes the half-written base
  // and surfaces as the writer's error; the manifest keeps the old chain.
  SupaModel model(data_, Config());
  DurabilityOptions options;
  options.dir = Path("engine");
  options.compact_threshold = 2;
  auto engine = DurabilityEngine::Attach(model, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TrainerCursor cursor;
  for (size_t cut = 0; cut < 3; ++cut) {
    TrainSome(model, 80 * cut, 80 * cut + 80);
    ASSERT_TRUE(engine.value()->OnCheckpoint(model, cursor).ok());
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  auto before = engine.value()->CurrentManifest();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().links.size(), 3u);
  {
    // Flip the last body byte before the footer of the first delta.
    const std::string delta = options.dir + "/" + before.value().links[1].file;
    std::fstream file(delta, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(-17, std::ios::end);
    const char byte = static_cast<char>(file.get() ^ 0x01);
    file.seekp(-17, std::ios::end);
    file.put(byte);
  }
  TrainSome(model, 240, 320);
  ASSERT_TRUE(engine.value()->OnCheckpoint(model, cursor).ok());
  const Status flushed = engine.value()->Flush();
  ASSERT_FALSE(flushed.ok());
  EXPECT_EQ(flushed.code(), StatusCode::kIOError) << flushed.ToString();

  // Base, three deltas and the MANIFEST: no compacted base is left behind.
  size_t bases = 0;
  for (const auto& entry : fs::directory_iterator(options.dir)) {
    if (entry.path().extension() == ".base") ++bases;
  }
  EXPECT_EQ(bases, 1u);
  auto after = LoadManifest(options.dir);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().links.size(), 4u);
}

TEST_F(DurCheckpointTest, ChainReaderRejectsBadRowTables) {
  // Tables are checked when the chain opens, before any sink sees a byte:
  // rows out of order, overlapping, out of range, or whose lengths do not
  // sum to the floats the file carries.
  SupaModel model(data_, Config());
  const LogicalCheckpoint base = GatherLogicalState(model);
  ASSERT_TRUE(WriteBaseFile(Path("t.base"), base).ok());
  const uint64_t total = base.meta.param_count;
  DeltaCapture good;
  good.param_count = total;
  good.offsets = {0, 64};
  good.lens = {16, 16};
  good.params.assign(32, 1.0f);
  good.m.assign(32, 2.0f);
  good.v.assign(32, 3.0f);
  ASSERT_TRUE(WriteDeltaFile(Path("good.delta"), good).ok());
  ASSERT_TRUE(ChainReader::Open(Path("t.base"), {Path("good.delta")}).ok());

  std::vector<DeltaCapture> bad(4, good);
  bad[0].offsets = {64, 0};      // descending
  bad[1].offsets = {0, 8};       // overlapping
  bad[2].offsets = {0, total - 8};  // past the end
  bad[3].lens = {16, 8};         // sums to 24; the file carries 32
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    // WriteDeltaFile writes whatever it is given; num_floats follows the
    // data, so only the tables disagree with it.
    ASSERT_TRUE(WriteDeltaFile(Path("bad.delta"), bad[i]).ok());
    auto chain = ChainReader::Open(Path("t.base"), {Path("bad.delta")});
    ASSERT_FALSE(chain.ok());
    EXPECT_EQ(chain.status().code(), StatusCode::kIOError)
        << chain.status().ToString();
    EXPECT_FALSE(ReadDeltaFile(Path("bad.delta")).ok());
  }
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
