// Low-overhead metrics registry: named counters, gauges, and fixed-bucket
// histograms.
//
// Hot-path contract: an increment/observe is one thread-local lookup plus a
// relaxed atomic add on a per-thread cell — no locks, and no allocation in
// steady state (each thread allocates its fixed-capacity shard once, on its
// first touch of a registry). Gauges are process-global (last write wins),
// so they live in a single shared cell instead of per-thread shards.
//
// Handles (Counter/Gauge/Histogram) are cheap value types resolved once at
// registration (GetCounter et al., which take a mutex) and then used from
// any thread. Registration is idempotent per name; the kind must match.
//
// Snapshot() merges per-thread shards in shard-creation order — counter and
// bucket merges are integer sums (exact and order-independent); histogram
// `sum` is a double reduced in that fixed order, so back-to-back snapshots
// of a quiesced registry are bit-identical.
//
// Instrumentation must never perturb training: nothing in this module
// consumes application RNG streams or touches model state, so results are
// bit-identical with metrics enabled or ignored (covered by obs_trace_test).

#ifndef SUPA_OBS_METRICS_H_
#define SUPA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace supa::obs {

/// Small sequential id for the calling thread, assigned on first use.
/// Shared by the trace recorder and the log prefix so one run's thread ids
/// are consistent across all observability output.
uint32_t CurrentThreadId();

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

class MetricsRegistry;

namespace internal {

/// Registration record for one metric. Fields are written once, under the
/// registry mutex, before any handle to the metric exists — handles may
/// therefore read them lock-free. Lives in a deque so the address is
/// stable for the registry's lifetime.
struct MetricInfo {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint32_t cell = 0;       // first uint64 cell (counter / buckets)
  uint32_t num_cells = 0;  // cells occupied (buckets + overflow)
  uint32_t dcell = 0;      // double cell (histogram sum)
  std::vector<double> bounds;
  std::atomic<double>* gauge = nullptr;
};

}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  void Increment(uint64_t n = 1) const;
  /// Adds seconds as integer nanoseconds (the registry convention for
  /// accumulated durations; export divides back to seconds).
  void AddSeconds(double seconds) const {
    if (seconds > 0.0) Increment(static_cast<uint64_t>(seconds * 1e9));
  }
  /// Current value merged across all shards. Not hot-path.
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, uint32_t cell) : reg_(reg), cell_(cell) {}
  MetricsRegistry* reg_ = nullptr;
  uint32_t cell_ = 0;
};

/// Last-write-wins scalar (plus atomic Add for accumulator-style use).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value) const {
    if (cell_ != nullptr) cell_->store(value, std::memory_order_relaxed);
  }
  void Add(double delta) const {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Also tracks the sum of all
/// observed values.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double value) const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, const internal::MetricInfo* info)
      : reg_(reg), info_(info) {}
  MetricsRegistry* reg_ = nullptr;
  const internal::MetricInfo* info_ = nullptr;
};

/// Point-in-time merged view of a registry, exportable as JSON or an
/// aligned text table. Entries are sorted by name.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    uint64_t counter = 0;  // kCounter
    double gauge = 0.0;    // kGauge
    // kHistogram:
    std::vector<double> bounds;     // upper bucket bounds (<=)
    std::vector<uint64_t> buckets;  // bounds.size() + 1 (overflow last)
    uint64_t count = 0;
    double sum = 0.0;

    /// Approximate quantile of a histogram entry (q in [0, 1]), linearly
    /// interpolated within the containing bucket (the first bucket is
    /// assumed to start at 0, the Prometheus convention). Observations in
    /// the overflow bucket are clamped to the largest finite bound.
    /// Returns 0 for empty histograms and non-histogram entries.
    double Quantile(double q) const;
  };

  /// Alias for readers coming from the admin-server API: a histogram's
  /// point-in-time state is one snapshot entry.
  using HistogramSnapshot = Entry;
  std::vector<Entry> entries;

  /// Entry by exact name, or nullptr.
  const Entry* Find(std::string_view name) const;
  /// Counter value by name (0 when absent — convenient for deltas).
  uint64_t CounterValue(std::string_view name) const;

  std::string ToJson() const;
  std::string ToTable() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by all built-in instrumentation. Never
  /// destroyed (leaked singleton) so worker threads may touch it at any
  /// point of shutdown.
  static MetricsRegistry& Global();

  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  /// `bounds` must be strictly increasing and non-empty; it is fixed at
  /// first registration (later calls with the same name ignore it).
  Histogram GetHistogram(std::string_view name, std::vector<double> bounds);

  /// `count` upper bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every cell in every shard (registrations are kept). Testing
  /// aid; do not call concurrently with hot-path writes if exact values
  /// matter afterwards.
  void ResetValues();

  /// Number of per-thread shards created so far.
  size_t num_shards() const;

 private:
  friend class Counter;
  friend class Histogram;

  struct Shard;

  /// The calling thread's shard, created on first use.
  Shard* ShardForThisThread();
  internal::MetricInfo* FindOrCreate(std::string_view name, MetricKind kind);

  const uint64_t registry_id_;
  mutable std::mutex mu_;
  std::deque<internal::MetricInfo> metrics_;    // stable addresses
  std::deque<std::atomic<double>> gauges_;      // stable addresses
  std::vector<std::unique_ptr<Shard>> shards_;  // creation order
  uint32_t next_cell_ = 0;
  uint32_t next_dcell_ = 0;
};

}  // namespace supa::obs

#endif  // SUPA_OBS_METRICS_H_
