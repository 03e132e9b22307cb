#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace supa {
namespace {

TEST(Crc32cTest, KnownCheckVector) {
  // The standard CRC-32C check value ("123456789" -> 0xE3069283). The CRC
  // is part of the WAL / checkpoint on-disk format, so this must never
  // change across backends or hosts.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Extending with an empty buffer is the identity.
  const uint32_t crc = Crc32c("abc", 3);
  EXPECT_EQ(Crc32c("", 0, crc), crc);
}

TEST(Crc32cTest, BackendNameIsKnown) {
  const std::string name = Crc32cBackendName();
  EXPECT_TRUE(name == "sse4.2" || name == "portable") << name;
}

TEST(Crc32cTest, PortableMatchesActiveBackend) {
  // On hosts where the accelerated path dispatches, this pins hardware /
  // software agreement across lengths that exercise every alignment and
  // tail-handling branch; on portable-only hosts it is trivially true.
  Rng rng(0x5ca1ab1eULL);
  for (size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u,
                     255u, 1024u, 4093u}) {
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(Crc32c(buf.data(), buf.size()),
              Crc32cPortable(buf.data(), buf.size()))
        << "len=" << len;
  }
}

// Three of the accelerated path's long blocks (8192 bytes each) plus 64
// bytes: long enough to reach the long three-way loop, its short-block
// remainder and the one-stream tail.
constexpr size_t kThreeLongBlocksPlus = 3 * 8192 + 64;

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  Rng rng(0xc0ffee);
  std::vector<uint8_t> buf(kThreeLongBlocksPlus + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = buf.data() + align;
    // The portable reference for every prefix, one byte at a time.
    uint32_t want = 0;
    for (size_t len = 0; len <= kThreeLongBlocksPlus; ++len) {
      if (len > 0) want = Crc32cPortable(p + len - 1, 1, want);
      const uint32_t got = Crc32c(p, len);
      if (got != want) {
        ADD_FAILURE() << "len=" << len << " align=" << align;
        return;
      }
    }
  }
}

TEST(Crc32cTest, ContinuedAcrossEverySplitMatchesOneShot) {
  Rng rng(0x5eed);
  std::vector<uint8_t> buf(kThreeLongBlocksPlus);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  EXPECT_EQ(whole, Crc32cPortable(buf.data(), buf.size()));
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32c(buf.data(), split);
    const uint32_t crc = Crc32c(buf.data() + split, buf.size() - split, head);
    if (crc != whole) {
      ADD_FAILURE() << "split=" << split;
      return;
    }
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  Rng rng(99);
  std::vector<uint8_t> buf(3000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());

  // Same bytes fed in uneven chunks, each call continuing from the last.
  for (size_t chunk : {1u, 7u, 64u, 1000u}) {
    uint32_t crc = 0;
    for (size_t pos = 0; pos < buf.size(); pos += chunk) {
      const size_t n = std::min(chunk, buf.size() - pos);
      crc = Crc32c(buf.data() + pos, n, crc);
    }
    EXPECT_EQ(crc, whole) << "chunk=" << chunk;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  for (size_t bit = 0; bit < buf.size() * 8; bit += 13) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), clean) << "bit=" << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace supa
