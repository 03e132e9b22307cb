// Scoped trace-span recorder emitting Chrome trace-event JSON.
//
// Spans are recorded as complete ("ph": "X") events with microsecond
// timestamps; Perfetto and chrome://tracing reconstruct the nesting from
// the time ranges, so a span opened inside another span on the same thread
// renders as its child. Each thread writes into its own bounded ring
// buffer (lock-free, fixed capacity, oldest events overwritten), so long
// runs keep the most recent window instead of growing without bound.
//
// TraceRecorder::Enable(true/false) is the switch: while the global
// recorder is off, SUPA_TRACE_SPAN (and SUPA_PHASE, obs/perf_counters.h)
// cost one relaxed load of a constant-initialized flag, with no call.
//
// Span names and categories must be string literals (or otherwise outlive
// the recorder): the ring stores the pointers, not copies.

#ifndef SUPA_OBS_TRACE_H_
#define SUPA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace supa::obs {

/// One recorded span, as exported for JSON emission and tests.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
};

class TraceRecorder {
 public:
  TraceRecorder() : TraceRecorder(&own_enabled_) {}
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder used by SUPA_TRACE_SPAN and SUPA_PHASE. Leaked
  /// singleton (see MetricsRegistry::Global).
  static TraceRecorder& Global();
  /// Global().enabled() without the call: the global recorder's switch.
  static bool GlobalEnabled() {
    return global_enabled_.load(std::memory_order_relaxed);
  }

  void Enable(bool on) { enabled_->store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  /// Per-thread ring capacity in events, rounded up to a power of two.
  /// Applies to rings created after the call; call before recording.
  void SetRingCapacity(size_t events);

  /// Records one complete span. No-op while disabled.
  void Record(const char* name, const char* cat, uint64_t start_ns,
              uint64_t end_ns);

  /// Monotonic nanoseconds (steady clock).
  static uint64_t NowNs();

  /// All retained events, oldest-first per thread. Takes the registry
  /// mutex; intended for export after the traced work quiesced.
  std::vector<TraceEvent> ExportEvents() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}; ts/dur in
  /// microseconds).
  std::string ToJson() const;
  bool WriteJson(const std::string& path, std::string* error) const;

  /// Drops all retained events and zeroes the drop counter.
  void Clear();

  /// Events overwritten because a ring wrapped.
  uint64_t dropped_events() const;
  /// Events currently retained across all rings.
  size_t recorded_events() const;

 private:
  struct Ring;

  explicit TraceRecorder(std::atomic<bool>* enabled);
  Ring* RingForThisThread();

  /// The global recorder's switch lives outside it, constant-initialized,
  /// so the disabled hot path needs neither the singleton nor a call.
  static inline std::atomic<bool> global_enabled_{false};
  std::atomic<bool> own_enabled_{false};
  std::atomic<bool>* const enabled_;
  const uint64_t recorder_id_;
  std::atomic<size_t> ring_capacity_;
  /// Mirrors ring overwrites into the metrics registry
  /// (`obs.trace.dropped`) so scrapes see drops without calling
  /// dropped_events(); unlike the per-ring counts it survives Clear().
  Counter dropped_counter_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  // creation order
};

/// RAII span: records [construction, destruction) into the global
/// recorder when tracing is enabled.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "supa")
      : name_(name),
        cat_(cat),
        start_ns_(TraceRecorder::GlobalEnabled() ? TraceRecorder::NowNs()
                                                 : 0) {}
  ~TraceSpan() {
    if (start_ns_ != 0) {
      TraceRecorder::Global().Record(name_, cat_, start_ns_,
                                     TraceRecorder::NowNs());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  uint64_t start_ns_;
};

#define SUPA_OBS_CONCAT_INNER(a, b) a##b
#define SUPA_OBS_CONCAT(a, b) SUPA_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define SUPA_TRACE_SPAN(name) \
  ::supa::obs::TraceSpan SUPA_OBS_CONCAT(supa_trace_span_, __LINE__)(name)
#define SUPA_TRACE_SPAN_CAT(name, cat)                                    \
  ::supa::obs::TraceSpan SUPA_OBS_CONCAT(supa_trace_span_, __LINE__)(name, \
                                                                     cat)

}  // namespace supa::obs

#endif  // SUPA_OBS_TRACE_H_
