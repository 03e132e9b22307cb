#include "obs/trace.h"

#include <algorithm>
#include <chrono>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace supa::obs {
namespace {

constexpr size_t kDefaultRingCapacity = 1 << 16;  // 64Ki events per thread

std::atomic<uint64_t> g_next_recorder_id{0};

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One stored event; name/cat are borrowed string-literal pointers.
struct StoredEvent {
  const char* name;
  const char* cat;
  uint64_t start_ns;
  uint64_t end_ns;
};

}  // namespace

struct TraceRecorder::Ring {
  explicit Ring(size_t capacity)
      : events(capacity), mask(capacity - 1), tid(CurrentThreadId()) {}

  std::vector<StoredEvent> events;  // capacity is a power of two
  const size_t mask;
  /// Total events ever written; events[i & mask] holds the i-th. The
  /// owner thread stores with release so an exporting thread reading with
  /// acquire sees fully-written events below the head.
  std::atomic<uint64_t> head{0};
  uint32_t tid;
};

TraceRecorder::TraceRecorder(std::atomic<bool>* enabled)
    : enabled_(enabled),
      recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(kDefaultRingCapacity),
      // Eagerly registered so the series exists (at zero) in every scrape,
      // not only after the first drop.
      dropped_counter_(
          MetricsRegistry::Global().GetCounter("obs.trace.dropped")) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose — see MetricsRegistry::Global().
  static TraceRecorder* recorder = new TraceRecorder(&global_enabled_);
  return *recorder;
}

uint64_t TraceRecorder::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TraceRecorder::SetRingCapacity(size_t events) {
  ring_capacity_.store(RoundUpPow2(std::max<size_t>(events, 16)),
                       std::memory_order_relaxed);
}

TraceRecorder::Ring* TraceRecorder::RingForThisThread() {
  thread_local std::vector<Ring*> t_rings;  // indexed by recorder id
  if (t_rings.size() <= recorder_id_) t_rings.resize(recorder_id_ + 1);
  Ring*& slot = t_rings[recorder_id_];
  if (slot == nullptr) {
    auto ring = std::make_unique<Ring>(
        ring_capacity_.load(std::memory_order_relaxed));
    slot = ring.get();
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::move(ring));
  }
  return slot;
}

void TraceRecorder::Record(const char* name, const char* cat,
                           uint64_t start_ns, uint64_t end_ns) {
  if (!enabled()) return;
  Ring* ring = RingForThisThread();
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  // Only the wrap path pays the extra relaxed add; a non-full ring keeps
  // the original record cost.
  if (head >= ring->events.size()) dropped_counter_.Increment();
  ring->events[head & ring->mask] = StoredEvent{name, cat, start_ns, end_ns};
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRecorder::ExportEvents() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const size_t capacity = ring->events.size();
    const uint64_t begin = head > capacity ? head - capacity : 0;
    for (uint64_t i = begin; i < head; ++i) {
      const StoredEvent& e = ring->events[i & ring->mask];
      out.push_back(TraceEvent{e.name, e.cat, e.start_ns, e.end_ns,
                               ring->tid});
    }
  }
  return out;
}

std::string TraceRecorder::ToJson() const {
  const std::vector<TraceEvent> events = ExportEvents();
  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", std::string_view("ms"));
  w.Field("droppedEvents", dropped_events());
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Field("name", std::string_view(e.name));
    w.Field("cat", std::string_view(e.cat));
    w.Field("ph", std::string_view("X"));
    w.Field("ts", static_cast<double>(e.start_ns) / 1e3);
    w.Field("dur", static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    w.Field("pid", static_cast<uint64_t>(1));
    w.Field("tid", static_cast<uint64_t>(e.tid));
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

bool TraceRecorder::WriteJson(const std::string& path,
                              std::string* error) const {
  return WriteTextFile(path, ToJson() + "\n", error);
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    const size_t capacity = ring->events.size();
    if (head > capacity) dropped += head - capacity;
  }
  return dropped;
}

size_t TraceRecorder::recorded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t retained = 0;
  for (const auto& ring : rings_) {
    retained += static_cast<size_t>(std::min<uint64_t>(
        ring->head.load(std::memory_order_relaxed), ring->events.size()));
  }
  return retained;
}

}  // namespace supa::obs
