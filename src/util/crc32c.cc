#include "util/crc32c.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <nmmintrin.h>
#define SUPA_CRC32C_HAVE_SSE42 1
#endif

namespace supa {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

/// Slicing-by-8 lookup tables, built once at first use. Table [0] is the
/// classic byte-at-a-time table; [k] advances a byte that sits k positions
/// ahead, letting the loop fold 8 bytes per iteration.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

uint32_t ExtendPortable(uint32_t state, const uint8_t* p, size_t len) {
  const Tables& tb = GetTables();
  while (len >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    word ^= state;
    state = tb.t[7][word & 0xFF] ^ tb.t[6][(word >> 8) & 0xFF] ^
            tb.t[5][(word >> 16) & 0xFF] ^ tb.t[4][(word >> 24) & 0xFF] ^
            tb.t[3][(word >> 32) & 0xFF] ^ tb.t[2][(word >> 40) & 0xFF] ^
            tb.t[1][(word >> 48) & 0xFF] ^ tb.t[0][(word >> 56) & 0xFF];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    state = tb.t[0][(state ^ *p++) & 0xFF] ^ (state >> 8);
  }
  return state;
}

#ifdef SUPA_CRC32C_HAVE_SSE42
/// Feeding `n` zero bytes to the CRC register is a linear map over GF(2);
/// these four byte tables apply it in four lookups. That lets three
/// independent crc32 streams run over adjacent blocks and be folded into
/// one value afterwards: crc(A ‖ B) = Shift_|B|(crc(A)) ^ crc_from_0(B).
/// The construction is the one in Mark Adler's public-domain crc32c.c.
struct ZeroShift {
  uint32_t t[4][256];
  explicit ZeroShift(size_t n) {
    const Tables& tb = GetTables();
    uint32_t column[32];  // the map applied to each single-bit register
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t state = 1u << bit;
      for (size_t i = 0; i < n; ++i) {
        state = tb.t[0][state & 0xFF] ^ (state >> 8);
      }
      column[bit] = state;
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t v = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) v ^= column[8 * k + bit];
        }
        t[k][b] = v;
      }
    }
  }
  uint32_t Apply(uint64_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
  }
};

// Block lengths of the three-way loops: long blocks for the bulk, short
// ones for the remainder. crc32 has a latency of three cycles and a
// throughput of one per cycle, so three streams keep the unit busy.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  __builtin_memcpy(&word, p, 8);
  return word;
}

/// Three interleaved streams over adjacent `block`-byte blocks, folded
/// into `crc0`, while at least 3 × block bytes remain.
__attribute__((target("sse4.2"))) uint64_t ThreeWay(uint64_t crc0,
                                                    const uint8_t*& p,
                                                    size_t& len, size_t block,
                                                    const ZeroShift& shift) {
  while (len >= 3 * block) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const uint8_t* const end = p + block;
    do {
      crc0 = _mm_crc32_u64(crc0, Load64(p));
      crc1 = _mm_crc32_u64(crc1, Load64(p + block));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * block));
      p += 8;
    } while (p < end);
    crc0 = shift.Apply(crc0) ^ crc1;
    crc0 = shift.Apply(crc0) ^ crc2;
    p += 2 * block;
    len -= 3 * block;
  }
  return crc0;
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t state,
                                                          const uint8_t* p,
                                                          size_t len) {
  uint64_t s = state;
  // Short inputs (WAL records, headers) take the one-stream loop below.
  if (len >= 3 * kShortBlock) {
    static const ZeroShift long_shift(kLongBlock);
    static const ZeroShift short_shift(kShortBlock);
    s = ThreeWay(s, p, len, kLongBlock, long_shift);
    s = ThreeWay(s, p, len, kShortBlock, short_shift);
  }
  while (len >= 8) {
    s = _mm_crc32_u64(s, Load64(p));
    p += 8;
    len -= 8;
  }
  uint32_t s32 = static_cast<uint32_t>(s);
  while (len-- > 0) {
    s32 = _mm_crc32_u8(s32, *p++);
  }
  return s32;
}

bool HaveSse42() { return __builtin_cpu_supports("sse4.2"); }
#else
bool HaveSse42() { return false; }
#endif

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

ExtendFn PickBackend() {
#ifdef SUPA_CRC32C_HAVE_SSE42
  if (HaveSse42()) return &ExtendHardware;
#endif
  return &ExtendPortable;
}

ExtendFn ActiveBackend() {
  static const ExtendFn fn = PickBackend();
  return fn;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return ActiveBackend()(crc ^ 0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu;
}

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return ExtendPortable(crc ^ 0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu;
}

const char* Crc32cBackendName() {
  return HaveSse42() ? "sse4.2" : "portable";
}

}  // namespace supa
