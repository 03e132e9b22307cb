// Construction-time knobs for the sharded storage engine.
//
// The shard count is the one user-visible knob: it controls how nodes are
// partitioned across independent adjacency + embedding banks. It is
// resolved once, at store construction, from (in priority order) the
// explicit request, the SUPA_SHARDS environment variable, and a default of
// a single shard. Determinism contract: the resolved count changes only
// *where* state lives, never *what* is computed — training and eval are
// bit-identical at any shard count (see DESIGN.md §11).

#ifndef SUPA_STORE_STORE_OPTIONS_H_
#define SUPA_STORE_STORE_OPTIONS_H_

#include <cstddef>
#include <cstdlib>

namespace supa::store {

/// Upper bound on shards: write leases track their held shards in a
/// 64-bit mask, and a single host has no use for more partitions than
/// that anyway.
inline constexpr size_t kMaxShards = 64;

struct StoreOptions {
  /// Requested shard count; 0 defers to SUPA_SHARDS (then to 1).
  size_t num_shards = 0;
  /// Export store.shard_* gauges and the /statusz shard-balance section.
  /// Only the trainer's store (SupaModel) turns this on; eval protocols,
  /// baselines and tests churn through throwaway stores.
  bool publish_metrics = false;
};

/// Resolves a requested shard count against the SUPA_SHARDS environment
/// variable. 0 means "not specified" at both levels; the result is always
/// in [1, kMaxShards].
inline size_t ResolveNumShards(size_t requested) {
  if (requested == 0) {
    if (const char* env = std::getenv("SUPA_SHARDS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') requested = parsed;
    }
  }
  if (requested == 0) requested = 1;
  if (requested > kMaxShards) requested = kMaxShards;
  return requested;
}

}  // namespace supa::store

#endif  // SUPA_STORE_STORE_OPTIONS_H_
