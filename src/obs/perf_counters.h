// Pipeline phases and their instrument, with hardware-counter profiling.
//
// SUPA_PHASE(kDomain) brackets one unit of work (one TrainEdge phase, one
// ingest group commit, one serve scoring batch, ...). It records a trace
// span named PerfDomainName(domain) and charges the hardware cost of that
// window — cycles, instructions, LLC loads/misses, branches, branch
// misses, task-clock, context switches — to the domain. Deltas
// accumulate into the global per-thread sharded MetricsRegistry under
// `perf.<domain>.<counter>` names, so the trace, /profilez, /metrics and
// the benches read one name table.
//
// Counters come from perf_event_open(2), opened per thread as two groups
// so members of a group are scheduled onto the PMU together and their
// ratios (IPC, miss rates) stay meaningful:
//   * hardware group — leader: cycles; members: instructions, LLC-loads,
//     LLC-load-misses, branches, branch-misses;
//   * software group — leader: task-clock; member: context-switches.
// Reads use PERF_FORMAT_GROUP with TOTAL_TIME_ENABLED / TOTAL_TIME_RUNNING
// so a multiplexed group (more counters than PMU slots) is scaled by
// enabled/running over the scope's window, the standard perf estimate.
//
// Degradation ladder (containers and CI runners rarely expose a PMU):
//   1. kHardware — full PMU groups.
//   2. kSoftware — perf_event_open works but hardware events don't
//      (EACCES/ENOSYS/ENOENT/...): task-clock + context-switches only;
//      hardware columns read as zero.
//   3. kRusage  — perf_event_open unavailable entirely: thread CPU time
//      via clock_gettime(CLOCK_THREAD_CPUTIME_ID) and context switches
//      via getrusage(RUSAGE_THREAD).
// Every tier emits the same metric schema; `source()` names the tier so
// consumers (bench JSON, /profilez) can label what the numbers mean.
// The ladder policy itself is the pure function ResolvePerfTier, pinned
// by obs_perf_counters_test.
//
// Hot-path contract: with tracing and profiling both off a SUPA_PHASE is
// two relaxed atomic loads; on or off, nothing here consumes application
// RNG streams or touches model state, so training output is bit-identical
// either way.
//
// Like everything in obs/, this depends only on the standard library and
// POSIX/Linux syscalls.

#ifndef SUPA_OBS_PERF_COUNTERS_H_
#define SUPA_OBS_PERF_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace supa::obs {

/// What a SUPA_PHASE's cost is attributed to. One scope == one unit of the
/// domain's work (one edge for the training phases, one batch for serve,
/// one shard for eval, ...), so `cycles / scopes` is cycles-per-edge for
/// the training domains.
enum class PerfDomain : uint8_t {
  // The five phases of the paper's instant-update loop.
  kSample = 0,
  kUpdate,
  kPropagate,
  kNegative,
  kOptimize,
  // One whole TrainEdge (serial trainer), the per-edge denominator.
  kTrainEdge,
  // Multi-writer ingest pipeline stages.
  kIngestPlan,
  kIngestExecute,
  kIngestCommit,
  // Request path: one serve scoring batch.
  kServeScore,
  // One evaluation shard.
  kEvalShard,
  // Snapshot machinery (full + delta, take + restore).
  kSnapshotTake,
  kSnapshotRestore,
  kCount
};

inline constexpr size_t kNumPerfDomains =
    static_cast<size_t>(PerfDomain::kCount);

/// Stable lowercase identifier ("sample", "ingest_commit", ...) used in
/// metric names `perf.<domain>.<counter>` and report keys.
const char* PerfDomainName(PerfDomain domain);

/// Which rung of the degradation ladder is producing numbers.
enum class PerfSource : uint8_t {
  kDisabled = 0,  // profiler never enabled
  kHardware,      // full PMU counter groups
  kSoftware,      // software perf events only (no PMU access)
  kRusage,        // getrusage/clock_gettime fallback (no perf_event_open)
};

/// Stable identifier ("hardware", "software", "rusage", "disabled") used
/// as the `perf.source` field of every export.
const char* PerfSourceName(PerfSource source);

/// The ladder policy: given which probe succeeded, pick the tier. Pure so
/// the fallback ordering is pinned by tests independent of the host.
PerfSource ResolvePerfTier(bool hardware_ok, bool software_ok);

namespace internal {

/// Raw absolute readings at one instant; deltas and multiplex scaling are
/// computed between two of these (see PhaseScope). No initializers: a
/// PhaseScope holds one, and a disabled scope must not pay to zero it.
struct PerfReading {
  uint64_t values[8];
  uint64_t hw_enabled;
  uint64_t hw_running;
  uint64_t sw_enabled;
  uint64_t sw_running;
};

}  // namespace internal

/// The process-wide profiler (Global()); the one instance SUPA_PHASE
/// charges.
class PerfProfiler {
 public:
  PerfProfiler(const PerfProfiler&) = delete;
  PerfProfiler& operator=(const PerfProfiler&) = delete;

  /// Leaked singleton (see MetricsRegistry::Global).
  static PerfProfiler& Global();

  /// Enabling probes the ladder (once per Enable(true)), registers the
  /// `perf.*` counters, and makes scopes live. Disabling returns the hot
  /// path to one relaxed load; per-thread counter fds stay open for a
  /// later re-enable.
  void Enable(bool on);
  /// Static, so the hot path reads the switch without calling Global().
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Tier chosen by the last Enable(true); kDisabled before that.
  PerfSource source() const {
    return source_.load(std::memory_order_relaxed);
  }

  /// Clamps the ladder: detection starts at `tier` instead of kHardware
  /// (e.g. kRusage skips perf_event_open entirely). Applies from the next
  /// Enable(true); already-open per-thread state is reopened lazily.
  /// Testing aid for pinning tier behavior on any host.
  void SetMaxTier(PerfSource tier);

 private:
  friend class PhaseScope;

  PerfProfiler() = default;

  /// Fills `*reading` for the calling thread, opening its counters on
  /// first use.
  void BeginScope(internal::PerfReading* reading);
  /// Reads again, scales, and charges the delta to `domain`.
  void EndScope(PerfDomain domain, const internal::PerfReading& begin);

  static inline std::atomic<bool> enabled_{false};
  std::atomic<PerfSource> source_{PerfSource::kDisabled};
  std::atomic<PerfSource> max_tier_{PerfSource::kHardware};
  /// Bumped when tier detection reruns; threads holding state from an
  /// older epoch reopen their counters.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> counters_ready_{false};
  /// [domain][slot]: 8 counter slots + 1 scope-count slot, resolved once
  /// under `init_mu_` at first Enable(true).
  Counter counters_[kNumPerfDomains][9];
  std::mutex init_mu_;
};

/// RAII scope of one phase: a trace span named PerfDomainName(domain)
/// and a perf charge to `perf.<domain>.*`, each taken only while its
/// instrument is on. Safe to nest (the optimize scope inside train_edge);
/// each scope takes its own deltas. Open it through SUPA_PHASE.
class PhaseScope {
 public:
  explicit PhaseScope(PerfDomain domain) : domain_(domain) {
    if (TraceRecorder::GlobalEnabled()) {
      trace_start_ns_ = TraceRecorder::NowNs();
    }
    if (PerfProfiler::enabled()) {
      perf_active_ = true;
      PerfProfiler::Global().BeginScope(&begin_);
    }
  }
  ~PhaseScope() {
    if (perf_active_) PerfProfiler::Global().EndScope(domain_, begin_);
    if (trace_start_ns_ != 0) {
      TraceRecorder::Global().Record(PerfDomainName(domain_), "phase",
                                     trace_start_ns_, TraceRecorder::NowNs());
    }
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const PerfDomain domain_;
  bool perf_active_ = false;
  uint64_t trace_start_ns_ = 0;
  internal::PerfReading begin_;
};

/// Instruments the rest of the enclosing scope as one unit of `domain` (a
/// PerfDomain enumerator name, e.g. SUPA_PHASE(kSample)).
#define SUPA_PHASE(domain)                \
  ::supa::obs::PhaseScope SUPA_OBS_CONCAT( \
      supa_phase_, __LINE__)(::supa::obs::PerfDomain::domain)

/// Derived view of one domain's `perf.*` counters in a snapshot. Counter
/// totals are multiplex-scaled and read as zero where the active tier
/// cannot measure them.
struct PerfDomainStats {
  PerfDomain domain = PerfDomain::kCount;
  uint64_t scopes = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_loads = 0;
  uint64_t llc_misses = 0;
  uint64_t branches = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;
  uint64_t ctx_switches = 0;
  double task_clock_s = 0.0;
  /// Ratios are 0 when their denominator is 0 (fallback tiers).
  double ipc = 0.0;              // instructions / cycles
  double llc_miss_rate = 0.0;    // llc_misses / llc_loads
  double branch_miss_rate = 0.0; // branch_misses / branches
  double cycles_per_edge = 0.0;  // cycles / scopes (one scope == one unit)
};

/// Stats for every domain with at least one recorded scope, in enum
/// order. Empty when profiling never ran.
std::vector<PerfDomainStats> CollectPerfDomainStats(
    const MetricsSnapshot& snapshot);

/// Appends derived Prometheus gauges (`perf_<domain>_ipc`,
/// `perf_<domain>_llc_miss_rate`, `perf_<domain>_branch_miss_rate`,
/// `perf_<domain>_cycles_per_edge`) plus the `supa_perf_source` info
/// series for the active tier. Raw `perf.*` counters are already covered
/// by the normal exposition of `snapshot`.
void AppendPerfPrometheusSeries(const MetricsSnapshot& snapshot,
                                std::string* out);

/// Full profile report as a JSON document: {"source": ..., "enabled": ...,
/// "domains": {"sample": {...}, ...}}. Served by /profilez (the admin
/// server renders its HTML view from it) and written by
/// `supa_cli --perf-out`.
std::string PerfReportJson(const MetricsSnapshot& snapshot);

}  // namespace supa::obs

#endif  // SUPA_OBS_PERF_COUNTERS_H_
