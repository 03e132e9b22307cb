#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>

#include "obs/json_writer.h"

namespace supa::obs {
namespace {

/// Fixed per-shard capacity. Every shard allocates the full arrays up
/// front so registration after shard creation never reallocates storage a
/// hot-path writer might be racing through. 4096 uint64 cells = 32 KiB per
/// thread; far above the couple hundred cells the built-in
/// instrumentation uses.
constexpr size_t kMaxUCells = 4096;
constexpr size_t kMaxDCells = 512;

std::atomic<uint64_t> g_next_registry_id{0};
std::atomic<uint32_t> g_next_thread_id{0};

}  // namespace

uint32_t CurrentThreadId() {
  thread_local uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

struct MetricsRegistry::Shard {
  Shard()
      : u(new std::atomic<uint64_t>[kMaxUCells]()),
        d(new std::atomic<double>[kMaxDCells]()),
        tid(CurrentThreadId()) {}

  std::unique_ptr<std::atomic<uint64_t>[]> u;
  std::unique_ptr<std::atomic<double>[]> d;
  uint32_t tid;
};

MetricsRegistry::MetricsRegistry()
    : registry_id_(g_next_registry_id.fetch_add(1,
                                                std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: worker threads (e.g. ThreadPool::Shared()) may
  // record metrics during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Shard* MetricsRegistry::ShardForThisThread() {
  // One slot per registry the thread has touched, indexed by the
  // process-wide registry id. Slots of destroyed registries go stale but
  // are unreachable (their handles died with the registry).
  thread_local std::vector<Shard*> t_shards;
  if (t_shards.size() <= registry_id_) t_shards.resize(registry_id_ + 1);
  Shard*& slot = t_shards[registry_id_];
  if (slot == nullptr) {
    auto shard = std::make_unique<Shard>();
    slot = shard.get();
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
  }
  return slot;
}

internal::MetricInfo* MetricsRegistry::FindOrCreate(std::string_view name,
                                                    MetricKind kind) {
  for (internal::MetricInfo& info : metrics_) {
    if (info.name == name) {
      assert(info.kind == kind && "metric re-registered with another kind");
      return info.kind == kind ? &info : nullptr;
    }
  }
  metrics_.push_back(internal::MetricInfo{});
  internal::MetricInfo& info = metrics_.back();
  info.name = std::string(name);
  info.kind = kind;
  return &info;
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  internal::MetricInfo* info = FindOrCreate(name, MetricKind::kCounter);
  if (info == nullptr) return Counter();
  if (info->num_cells == 0) {
    assert(next_cell_ + 1 <= kMaxUCells && "metric cell capacity exhausted");
    info->cell = next_cell_++;
    info->num_cells = 1;
  }
  return Counter(this, info->cell);
}

Gauge MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  internal::MetricInfo* info = FindOrCreate(name, MetricKind::kGauge);
  if (info == nullptr) return Gauge();
  if (info->gauge == nullptr) {
    gauges_.emplace_back();  // value-initialized to 0.0
    info->gauge = &gauges_.back();
  }
  return Gauge(info->gauge);
}

Histogram MetricsRegistry::GetHistogram(std::string_view name,
                                        std::vector<double> bounds) {
  assert(!bounds.empty());
  assert(std::is_sorted(bounds.begin(), bounds.end()));
  std::lock_guard<std::mutex> lock(mu_);
  internal::MetricInfo* info = FindOrCreate(name, MetricKind::kHistogram);
  if (info == nullptr) return Histogram();
  if (info->num_cells == 0) {
    const uint32_t cells = static_cast<uint32_t>(bounds.size()) + 1;
    assert(next_cell_ + cells <= kMaxUCells &&
           "metric cell capacity exhausted");
    assert(next_dcell_ + 1 <= kMaxDCells);
    info->cell = next_cell_;
    info->num_cells = cells;
    next_cell_ += cells;
    info->dcell = next_dcell_++;
    info->bounds = std::move(bounds);
  }
  return Histogram(this, info);
}

void Counter::Increment(uint64_t n) const {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard* shard = reg_->ShardForThisThread();
  shard->u[cell_].fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  if (reg_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  uint64_t total = 0;
  for (const auto& shard : reg_->shards_) {
    total += shard->u[cell_].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Observe(double value) const {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard* shard = reg_->ShardForThisThread();
  size_t bucket = info_->bounds.size();  // overflow by default
  for (size_t i = 0; i < info_->bounds.size(); ++i) {
    if (value <= info_->bounds[i]) {
      bucket = i;
      break;
    }
  }
  shard->u[info_->cell + bucket].fetch_add(1, std::memory_order_relaxed);
  shard->d[info_->dcell].fetch_add(value, std::memory_order_relaxed);
}

std::vector<double> MetricsRegistry::ExponentialBounds(double start,
                                                       double factor,
                                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(metrics_.size());
  for (const internal::MetricInfo& info : metrics_) {
    MetricsSnapshot::Entry entry;
    entry.name = info.name;
    entry.kind = info.kind;
    switch (info.kind) {
      case MetricKind::kCounter: {
        for (const auto& shard : shards_) {
          entry.counter += shard->u[info.cell].load(std::memory_order_relaxed);
        }
        break;
      }
      case MetricKind::kGauge: {
        entry.gauge = info.gauge == nullptr
                          ? 0.0
                          : info.gauge->load(std::memory_order_relaxed);
        break;
      }
      case MetricKind::kHistogram: {
        entry.bounds = info.bounds;
        entry.buckets.assign(info.num_cells, 0);
        // Shards are merged in creation order: bucket counts are exact
        // integer sums; `sum` is a double reduced in this fixed order so
        // repeated snapshots of quiesced state are bit-identical.
        for (const auto& shard : shards_) {
          for (uint32_t c = 0; c < info.num_cells; ++c) {
            entry.buckets[c] +=
                shard->u[info.cell + c].load(std::memory_order_relaxed);
          }
          entry.sum += shard->d[info.dcell].load(std::memory_order_relaxed);
        }
        for (uint64_t b : entry.buckets) entry.count += b;
        break;
      }
    }
    snap.entries.push_back(std::move(entry));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shard : shards_) {
    for (size_t i = 0; i < kMaxUCells; ++i) {
      shard->u[i].store(0, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kMaxDCells; ++i) {
      shard->d[i].store(0.0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

size_t MetricsRegistry::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

double MetricsSnapshot::Entry::Quantile(double q) const {
  if (kind != MetricKind::kHistogram || count == 0 || bounds.empty()) {
    return 0.0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target observation among `count`, 1-based; q = 0 maps to
  // the first observation.
  const double target = std::max(q * static_cast<double>(count), 1.0);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds.size()) return bounds.back();  // overflow: clamp
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double in_bucket = static_cast<double>(buckets[i]);
    const double position = (target - static_cast<double>(before)) / in_bucket;
    return lower + (upper - lower) * std::min(position, 1.0);
  }
  return bounds.back();
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const Entry* e = Find(name);
  return (e != nullptr && e->kind == MetricKind::kCounter) ? e->counter : 0;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject().Key("metrics").BeginArray();
  for (const Entry& e : entries) {
    w.BeginObject();
    w.Field("name", e.name);
    w.Field("kind", std::string_view(MetricKindName(e.kind)));
    switch (e.kind) {
      case MetricKind::kCounter:
        w.Field("value", e.counter);
        break;
      case MetricKind::kGauge:
        w.Field("value", e.gauge);
        break;
      case MetricKind::kHistogram: {
        w.Field("count", e.count);
        w.Field("sum", e.sum);
        w.Key("buckets").BeginArray();
        for (size_t i = 0; i < e.buckets.size(); ++i) {
          w.BeginObject();
          if (i < e.bounds.size()) {
            w.Field("le", e.bounds[i]);
          } else {
            w.Field("le", std::string_view("inf"));
          }
          w.Field("count", e.buckets[i]);
          w.EndObject();
        }
        w.EndArray();
        break;
      }
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string MetricsSnapshot::ToTable() const {
  std::vector<std::array<std::string, 3>> rows;
  rows.push_back({"name", "kind", "value"});
  for (const Entry& e : entries) {
    std::string value;
    switch (e.kind) {
      case MetricKind::kCounter:
        value = std::to_string(e.counter);
        break;
      case MetricKind::kGauge: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", e.gauge);
        value = buf;
        break;
      }
      case MetricKind::kHistogram: {
        char buf[96];
        const double mean =
            e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count);
        std::snprintf(buf, sizeof(buf), "count=%llu sum=%.6g mean=%.6g",
                      static_cast<unsigned long long>(e.count), e.sum, mean);
        value = buf;
        break;
      }
    }
    rows.push_back({e.name, std::string(MetricKindName(e.kind)),
                    std::move(value)});
  }
  std::array<size_t, 3> widths{0, 0, 0};
  for (const auto& row : rows) {
    for (size_t i = 0; i < 3; ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < 3; ++i) {
      out += row[i];
      if (i + 1 < 3) out.append(widths[i] - row[i].size() + 2, ' ');
    }
    out += '\n';
  }
  return out;
}

}  // namespace supa::obs
