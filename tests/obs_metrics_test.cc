#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_parse.h"
#include "util/thread_pool.h"

namespace supa::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  MetricsRegistry reg;
  Counter c = reg.GetCounter("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter a = reg.GetCounter("same.name");
  Counter b = reg.GetCounter("same.name");
  a.Increment(10);
  b.Increment(5);
  // Both handles address the same metric.
  EXPECT_EQ(a.Value(), 15u);
  EXPECT_EQ(b.Value(), 15u);
  EXPECT_EQ(reg.Snapshot().entries.size(), 1u);
}

TEST(CounterTest, AddSecondsStoresNanoseconds) {
  MetricsRegistry reg;
  Counter c = reg.GetCounter("test.duration_ns");
  c.AddSeconds(1.5);
  EXPECT_EQ(c.Value(), 1'500'000'000u);
  c.AddSeconds(-1.0);  // negative durations are dropped, not wrapped
  EXPECT_EQ(c.Value(), 1'500'000'000u);
}

TEST(GaugeTest, SetAddValue) {
  MetricsRegistry reg;
  Gauge g = reg.GetGauge("test.gauge");
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(0.5);
  EXPECT_EQ(g.Value(), 3.0);
  g.Set(-1.0);  // last write wins
  EXPECT_EQ(g.Value(), -1.0);
}

TEST(GaugeTest, SharedAcrossThreads) {
  MetricsRegistry reg;
  Gauge g = reg.GetGauge("test.shared_gauge");
  std::thread t([&] { g.Set(7.0); });
  t.join();
  // Gauges are process-global cells, not per-thread shards.
  EXPECT_EQ(g.Value(), 7.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  MetricsRegistry reg;
  Histogram h = reg.GetHistogram("test.hist", {1.0, 2.0, 4.0});
  // One observation per region, with exact-boundary hits: <=1, <=2, <=4,
  // and overflow.
  h.Observe(0.5);
  h.Observe(1.0);  // boundary: falls in the <=1 bucket
  h.Observe(2.0);  // boundary: falls in the <=2 bucket
  h.Observe(3.0);
  h.Observe(4.0);
  h.Observe(100.0);  // overflow

  const MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::Entry* e = snap.Find("test.hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kHistogram);
  ASSERT_EQ(e->bounds.size(), 3u);
  ASSERT_EQ(e->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(e->buckets[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(e->buckets[1], 1u);      // 2.0
  EXPECT_EQ(e->buckets[2], 2u);      // 3.0, 4.0
  EXPECT_EQ(e->buckets[3], 1u);      // 100.0
  EXPECT_EQ(e->count, 6u);
  EXPECT_DOUBLE_EQ(e->sum, 0.5 + 1.0 + 2.0 + 3.0 + 4.0 + 100.0);
}

TEST(HistogramTest, ExponentialBounds) {
  const std::vector<double> b = MetricsRegistry::ExponentialBounds(1.0, 4.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_DOUBLE_EQ(b[2], 16.0);
  EXPECT_DOUBLE_EQ(b[3], 64.0);
}

TEST(RegistryTest, ShardMergeIsExactAcrossThreadPool) {
  MetricsRegistry reg;
  Counter c = reg.GetCounter("test.pooled");
  Histogram h = reg.GetHistogram("test.pooled_hist", {10.0, 100.0});
  constexpr size_t kShards = 64;
  constexpr uint64_t kPerShard = 1000;
  ThreadPool pool(4);
  ParallelFor(pool, 4, kShards, [&](size_t shard) {
    for (uint64_t i = 0; i < kPerShard; ++i) {
      c.Increment();
      // Integer-valued observations keep the double sum associativity-
      // proof, so the bit-identity assertion below is exact.
      h.Observe(static_cast<double>(shard % 3));
    }
  });
  EXPECT_EQ(c.Value(), kShards * kPerShard);
  const MetricsSnapshot a = reg.Snapshot();
  const MetricsSnapshot b = reg.Snapshot();
  const auto* ea = a.Find("test.pooled_hist");
  const auto* eb = b.Find("test.pooled_hist");
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(ea->count, kShards * kPerShard);
  // Back-to-back snapshots of a quiesced registry are bit-identical: the
  // shard merge happens in fixed creation order.
  EXPECT_EQ(ea->sum, eb->sum);
  EXPECT_EQ(ea->buckets, eb->buckets);
  EXPECT_EQ(a.CounterValue("test.pooled"), b.CounterValue("test.pooled"));
}

TEST(RegistryTest, SnapshotWhileIncrementing) {
  MetricsRegistry reg;
  Counter c = reg.GetCounter("test.live");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> written{0};
  {
    ThreadPool pool(2);
    for (int w = 0; w < 2; ++w) {
      pool.Submit([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          c.Increment();
          written.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
      const uint64_t v = reg.Snapshot().CounterValue("test.live");
      // Concurrent snapshots are monotonic: merged relaxed adds never go
      // backwards between observations.
      EXPECT_GE(v, last);
      last = v;
    }
    stop.store(true, std::memory_order_relaxed);
  }  // ~ThreadPool joins the workers
  // With the writers joined, the merged value is exact.
  EXPECT_EQ(reg.Snapshot().CounterValue("test.live"), written.load());
}

TEST(RegistryTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter c = reg.GetCounter("test.reset");
  Histogram h = reg.GetHistogram("test.reset_hist", {1.0});
  c.Increment(9);
  h.Observe(0.5);
  reg.ResetValues();
  EXPECT_EQ(c.Value(), 0u);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.entries.size(), 2u);  // registrations survive
  const auto* e = snap.Find("test.reset_hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 0u);
  c.Increment();  // handles stay valid after a reset
  EXPECT_EQ(c.Value(), 1u);
}

TEST(SnapshotTest, EntriesSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zeta").Increment();
  reg.GetCounter("alpha").Increment();
  reg.GetGauge("mid").Set(1.0);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "mid");
  EXPECT_EQ(snap.entries[2].name, "zeta");
}

TEST(SnapshotTest, ToJsonIsValidJson) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter").Increment(3);
  reg.GetGauge("a.gauge \"quoted\"").Set(1.25);  // name needing escaping
  reg.GetHistogram("a.hist", {1.0, 8.0}).Observe(2.0);
  const std::string json = reg.Snapshot().ToJson();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &doc, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("a.counter"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(SnapshotTest, ToTableListsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("rows.counter").Increment(7);
  reg.GetHistogram("rows.hist", {1.0}).Observe(3.0);
  const std::string table = reg.Snapshot().ToTable();
  EXPECT_NE(table.find("rows.counter"), std::string::npos);
  EXPECT_NE(table.find("rows.hist"), std::string::npos);
  EXPECT_NE(table.find("7"), std::string::npos);
  EXPECT_NE(table.find("count="), std::string::npos);
}

TEST(RegistryTest, GlobalIsSingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadIdTest, StableWithinThreadDistinctAcross) {
  const uint32_t here = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), here);
  uint32_t other = here;
  std::thread t([&] { other = CurrentThreadId(); });
  t.join();
  EXPECT_NE(other, here);
}

}  // namespace
}  // namespace supa::obs
