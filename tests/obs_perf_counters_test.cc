#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/ingest.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace supa::obs {
namespace {

/// Scoped profiler state for tests using the global profiler (SUPA_PHASE
/// always charges Global()): restores "disabled, unclamped" on exit so
/// tests do not leak tier state into each other.
class GlobalPerfScope {
 public:
  GlobalPerfScope(bool enable, PerfSource max_tier = PerfSource::kHardware) {
    PerfProfiler::Global().Enable(false);
    PerfProfiler::Global().SetMaxTier(max_tier);
    PerfProfiler::Global().Enable(enable);
  }
  ~GlobalPerfScope() {
    PerfProfiler::Global().Enable(false);
    PerfProfiler::Global().SetMaxTier(PerfSource::kHardware);
  }
};

/// Deterministic CPU burn so every tier (PMU, software task-clock, rusage
/// thread clock) sees nonzero cost inside a scope.
uint64_t SpinWork(uint64_t iters) {
  volatile uint64_t acc = 1;
  for (uint64_t i = 0; i < iters; ++i) {
    acc = acc * 2862933555777941757ULL + 3037000493ULL;
  }
  return acc;
}

uint64_t CounterNow(const std::string& name) {
  return MetricsRegistry::Global().Snapshot().CounterValue(name);
}

// The ladder policy is a pure function so its ordering is pinned here,
// independent of what the host kernel/PMU actually allows.
TEST(PerfTierTest, ResolvePinsFallbackOrdering) {
  EXPECT_EQ(ResolvePerfTier(true, true), PerfSource::kHardware);
  EXPECT_EQ(ResolvePerfTier(true, false), PerfSource::kHardware);
  EXPECT_EQ(ResolvePerfTier(false, true), PerfSource::kSoftware);
  EXPECT_EQ(ResolvePerfTier(false, false), PerfSource::kRusage);
}

TEST(PerfNamesTest, DomainAndSourceNamesAreStable) {
  // These strings are metric names and JSON keys — changing one silently
  // breaks dashboards, /profilez readers and CI's profile checks.
  EXPECT_STREQ(PerfDomainName(PerfDomain::kSample), "sample");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kOptimize), "optimize");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kTrainEdge), "train_edge");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kIngestCommit), "ingest_commit");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kSnapshotRestore),
               "snapshot_restore");
  EXPECT_STREQ(PerfSourceName(PerfSource::kHardware), "hardware");
  EXPECT_STREQ(PerfSourceName(PerfSource::kSoftware), "software");
  EXPECT_STREQ(PerfSourceName(PerfSource::kRusage), "rusage");
  EXPECT_STREQ(PerfSourceName(PerfSource::kDisabled), "disabled");
}

TEST(PerfProfilerTest, EnableDetectsSomeTier) {
  GlobalPerfScope scope(/*enable=*/true);
  // Whatever the host allows, the ladder must land on a real rung —
  // kRusage exists precisely so detection can never fail.
  EXPECT_TRUE(PerfProfiler::Global().enabled());
  EXPECT_NE(PerfProfiler::Global().source(), PerfSource::kDisabled);
}

TEST(PerfProfilerTest, DisabledScopesChargeNothing) {
  // With tracing and profiling both off, SUPA_PHASE records no span and
  // charges no counter.
  GlobalPerfScope scope(/*enable=*/false);
  TraceRecorder::Global().Enable(false);
  TraceRecorder::Global().Clear();
  const uint64_t before = CounterNow("perf.train_edge.scopes");
  const uint64_t clock_before = CounterNow("perf.train_edge.task_clock_ns");
  for (int i = 0; i < 16; ++i) {
    SUPA_PHASE(kTrainEdge);
    SpinWork(1000);
  }
  EXPECT_EQ(CounterNow("perf.train_edge.scopes"), before);
  EXPECT_EQ(CounterNow("perf.train_edge.task_clock_ns"), clock_before);
  EXPECT_EQ(TraceRecorder::Global().recorded_events(), 0u);
}

// One parameterized check per ladder rung: clamp the tier, run scopes,
// require the scope count and a nonzero CPU-time charge. This is the
// EACCES/ENOSYS story — a host where perf_event_open fails behaves like
// the clamped tiers and must still produce coherent numbers.
void ExpectTierCharges(PerfSource clamp) {
  GlobalPerfScope scope(/*enable=*/true, clamp);
  const PerfSource source = PerfProfiler::Global().source();
  EXPECT_NE(source, PerfSource::kDisabled);
  // A clamp is an upper rung: detection may descend further (a PMU-less
  // host clamped to kHardware lands on kSoftware or kRusage) but never
  // climbs above it.
  EXPECT_GE(static_cast<int>(source), static_cast<int>(clamp));

  const uint64_t scopes_before = CounterNow("perf.eval_shard.scopes");
  const uint64_t clock_before = CounterNow("perf.eval_shard.task_clock_ns");
  constexpr int kScopes = 8;
  for (int i = 0; i < kScopes; ++i) {
    SUPA_PHASE(kEvalShard);
    SpinWork(300000);
  }
  EXPECT_EQ(CounterNow("perf.eval_shard.scopes"), scopes_before + kScopes);
  // Every tier measures thread CPU time (PMU group's task-clock member,
  // software task-clock, or CLOCK_THREAD_CPUTIME_ID).
  EXPECT_GT(CounterNow("perf.eval_shard.task_clock_ns"), clock_before);
}

TEST(PerfProfilerTest, ChargesAtDetectedTier) {
  ExpectTierCharges(PerfSource::kHardware);
}

TEST(PerfProfilerTest, ChargesWhenClampedToSoftware) {
  ExpectTierCharges(PerfSource::kSoftware);
}

TEST(PerfProfilerTest, ChargesOnRusageFallback) {
  // kRusage skips perf_event_open entirely — the no-perf-syscall world.
  ExpectTierCharges(PerfSource::kRusage);
  // And the clamp must not have been rounded up.
  GlobalPerfScope scope(/*enable=*/true, PerfSource::kRusage);
  EXPECT_EQ(PerfProfiler::Global().source(), PerfSource::kRusage);
}

TEST(PerfReportTest, JsonParsesAndNamesTheTier) {
  GlobalPerfScope scope(/*enable=*/true);
  {
    SUPA_PHASE(kServeScore);
    SpinWork(10000);
  }
  const std::string json =
      PerfReportJson(MetricsRegistry::Global().Snapshot());
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &doc, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"source\""), std::string::npos);
  EXPECT_NE(json.find("\"domains\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_score\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles_per_edge\""), std::string::npos);
}

TEST(PerfReportTest, PrometheusSeriesIncludeSourceAndDerivedGauges) {
  GlobalPerfScope scope(/*enable=*/true);
  {
    SUPA_PHASE(kSnapshotTake);
    SpinWork(10000);
  }
  std::string out;
  AppendPerfPrometheusSeries(MetricsRegistry::Global().Snapshot(), &out);
  EXPECT_NE(out.find("supa_perf_source"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_ipc"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_llc_miss_rate"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_cycles_per_edge"),
            std::string::npos);
}

// The trace, /profilez, /metrics and the benches read one name table: with
// both instruments on, every domain that ran has exactly one span named
// PerfDomainName(d) per `perf.<d>.scopes` charge. The run covers the
// serial trainer with a Φ_best take and rollback, a 2-writer ingest span
// and one served request.
TEST(PhaseVocabularyTest, EveryDomainThatRanHasOneSpanPerScope) {
  Dataset data = MakeTaobao(0.2, 31).value();
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 2;
  config.walk_len = 3;
  config.num_neg = 3;
  config.seed = 5;

  TraceRecorder& trace = TraceRecorder::Global();
  trace.Clear();
  trace.Enable(true);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  {
    GlobalPerfScope perf(/*enable=*/true);
    SupaModel model(data, config);
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(model.TrainEdge(data.edges[i]).ok());
      ASSERT_TRUE(model.ObserveEdge(data.edges[i]).ok());
    }
    model.TakeBest();
    ASSERT_TRUE(model.TrainEdge(data.edges[40]).ok());
    ASSERT_TRUE(model.RestoreBest().ok());

    IngestOptions ingest;
    ingest.writers = 2;
    IngestPipeline pipeline(model, ingest);
    ASSERT_TRUE(pipeline
                    .TrainSpan(data.edges, 40, 120, /*observe_edges=*/true,
                               nullptr, nullptr, nullptr)
                    .ok());

    serve::ServeEngine engine(&model, &data);
    engine.Start();
    serve::RecommendRequest request;
    request.user = data.edges[0].src;
    if (data.node_types[request.user] != data.query_type) {
      request.user = data.edges[0].dst;
    }
    request.relation = data.target_relations[0];
    serve::RecommendResponse response;
    const Status served = engine.Recommend(request, &response);
    engine.Stop();
    ASSERT_TRUE(served.ok()) << served.ToString();
  }
  trace.Enable(false);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  ASSERT_EQ(trace.dropped_events(), 0u);  // the ring kept every span
  std::map<std::string, uint64_t> spans;
  for (const TraceEvent& e : trace.ExportEvents()) ++spans[e.name];
  trace.Clear();
  std::map<std::string, uint64_t> scopes;
  for (size_t d = 0; d < kNumPerfDomains; ++d) {
    const std::string name = PerfDomainName(static_cast<PerfDomain>(d));
    const std::string counter = "perf." + name + ".scopes";
    scopes[name] = after.CounterValue(counter) - before.CounterValue(counter);
    EXPECT_EQ(spans[name], scopes[name]) << name;
  }
  for (const char* ran :
       {"sample", "update", "propagate", "negative", "optimize", "train_edge",
        "snapshot_take", "snapshot_restore", "ingest_plan", "ingest_execute",
        "ingest_commit", "serve_score"}) {
    EXPECT_GT(scopes[ran], 0u) << ran;
  }
}

// The acceptance bar shared with tracing: profiling must never perturb
// training. Train two identically-seeded models over the same stream —
// one fully profiled, one not — and require bit-identical parameters.
TEST(PerfBitIdentityTest, ProfilingDoesNotPerturbTraining) {
  Dataset data = MakeTaobao(0.2, 31).value();
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 3;
  config.walk_len = 3;
  config.num_neg = 3;
  config.seed = 5;

  auto train = [&](bool profiled) {
    GlobalPerfScope scope(profiled);
    const uint64_t scopes_before = CounterNow("perf.train_edge.scopes");
    SupaModel model(data, config);
    for (size_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(model.TrainEdge(data.edges[i]).ok());
      EXPECT_TRUE(model.ObserveEdge(data.edges[i]).ok());
    }
    if (profiled) {
      // Sanity: the profiled run actually charged training scopes.
      EXPECT_GT(CounterNow("perf.train_edge.scopes"), scopes_before);
    }
    return model.TakeSnapshot();
  };

  const auto profiled = train(true);
  const auto plain = train(false);
  EXPECT_EQ(profiled.params, plain.params);
}

}  // namespace
}  // namespace supa::obs
