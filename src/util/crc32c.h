// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding
// every WAL record and checkpoint blob in the durability engine.
//
// Chosen over CRC-32 (zlib) because x86 has carried a native instruction
// for it since SSE4.2, which turns per-record integrity checks into a few
// cycles. Inputs of 768 bytes or more run three interleaved instruction
// streams over adjacent blocks and fold them with zero-shift tables, about
// three times the one-stream rate on checkpoint bodies. The portable
// fallback is a slicing-by-8 table walk. Both
// backends produce identical values (the CRC is part of the on-disk
// format, so it must not depend on the host), and the backend is picked
// once at startup via the same runtime-dispatch idiom as util/simd.h.

#ifndef SUPA_UTIL_CRC32C_H_
#define SUPA_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace supa {

/// CRC-32C of `data[0, len)` continuing from `crc` (pass 0 to start a new
/// checksum; feed the previous return value to extend one across multiple
/// buffers). Standard init/xor-out: Crc32c("123456789", 9) == 0xE3069283.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

/// Name of the active backend ("sse4.2" or "portable"), for logs/tests.
const char* Crc32cBackendName();

/// The portable table-driven implementation, exposed so tests can pin
/// hardware/software agreement on hosts where the accelerated path runs.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t crc = 0);

}  // namespace supa

#endif  // SUPA_UTIL_CRC32C_H_
