#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.h"
#include "data/synthetic.h"
#include "obs/json_parse.h"

namespace supa::obs {
namespace {

/// Scoped enable/disable + Clear of the global recorder so tests using the
/// SUPA_TRACE_SPAN macros (which always hit Global()) do not leak state
/// into each other.
class GlobalTraceScope {
 public:
  explicit GlobalTraceScope(bool enable) {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable(enable);
  }
  ~GlobalTraceScope() {
    TraceRecorder::Global().Enable(false);
    TraceRecorder::Global().Clear();
  }
};

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;
  ASSERT_FALSE(rec.enabled());
  rec.Record("span", "test", 100, 200);
  EXPECT_EQ(rec.recorded_events(), 0u);
  EXPECT_TRUE(rec.ExportEvents().empty());
}

TEST(TraceRecorderTest, RecordsEventFields) {
  TraceRecorder rec;
  rec.Enable(true);
  rec.Record("alpha", "cat_a", 1000, 2500);
  rec.Record("beta", "cat_b", 3000, 3001);
  rec.Enable(false);
  const std::vector<TraceEvent> events = rec.ExportEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "alpha");
  EXPECT_STREQ(events[0].cat, "cat_a");
  EXPECT_EQ(events[0].start_ns, 1000u);
  EXPECT_EQ(events[0].end_ns, 2500u);
  EXPECT_STREQ(events[1].name, "beta");
  EXPECT_EQ(events[0].tid, events[1].tid);  // same recording thread
}

TEST(TraceRecorderTest, RingBoundsRetentionAndCountsDrops) {
  TraceRecorder rec;
  rec.SetRingCapacity(16);  // the minimum ring size
  rec.Enable(true);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Record("e", "test", i * 10, i * 10 + 5);
  }
  rec.Enable(false);
  EXPECT_EQ(rec.recorded_events(), 16u);
  EXPECT_EQ(rec.dropped_events(), 4u);
  // The ring keeps the newest window, oldest-first.
  const std::vector<TraceEvent> events = rec.ExportEvents();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().start_ns, 40u);
  EXPECT_EQ(events.back().start_ns, 190u);
}

TEST(TraceRecorderTest, ClearDropsEventsAndResetsDropCounter) {
  TraceRecorder rec;
  rec.SetRingCapacity(16);
  rec.Enable(true);
  for (uint64_t i = 0; i < 20; ++i) rec.Record("e", "test", i, i + 1);
  rec.Clear();
  EXPECT_EQ(rec.recorded_events(), 0u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  rec.Record("after", "test", 1, 2);
  EXPECT_EQ(rec.recorded_events(), 1u);
}

TEST(TraceRecorderTest, NowNsIsMonotonic) {
  const uint64_t a = TraceRecorder::NowNs();
  const uint64_t b = TraceRecorder::NowNs();
  EXPECT_LE(a, b);
}

TEST(TraceSpanTest, NestedSpansAreContainedInTime) {
  GlobalTraceScope scope(/*enable=*/true);
  {
    SUPA_TRACE_SPAN_CAT("outer", "test");
    {
      SUPA_TRACE_SPAN_CAT("inner", "test");
    }
  }
  const std::vector<TraceEvent> events =
      TraceRecorder::Global().ExportEvents();
  const auto find = [&](const char* name) -> const TraceEvent* {
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name) == name) return &e;
    }
    return nullptr;
  };
  const TraceEvent* outer = find("outer");
  const TraceEvent* inner = find("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Chrome/Perfetto reconstruct nesting from containment; assert it holds.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_EQ(inner->tid, outer->tid);
}

TEST(TraceSpanTest, DisabledSpansRecordNothing) {
  GlobalTraceScope scope(/*enable=*/false);
  {
    SUPA_TRACE_SPAN("ghost");
  }
  EXPECT_EQ(TraceRecorder::Global().recorded_events(), 0u);
}

TEST(TraceJsonTest, ToJsonIsValidChromeTrace) {
  TraceRecorder rec;
  rec.Enable(true);
  rec.Record("span \"quoted\"", "test", 1000, 2000);
  rec.Record("plain", "test", 2000, 4000);
  rec.Enable(false);
  const std::string json = rec.ToJson();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &doc, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceJsonTest, EmptyRecorderStillEmitsValidJson) {
  TraceRecorder rec;
  const std::string json = rec.ToJson();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &doc, &error)) << error << "\n" << json;
}

// The acceptance bar for the whole observability layer: instrumentation
// must never perturb training. Train two identically-seeded models over
// the same stream — one under an enabled recorder, one disabled — and
// require bit-identical parameters.
TEST(TraceBitIdentityTest, TracingDoesNotPerturbTraining) {
  Dataset data = MakeTaobao(0.2, 31).value();
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 3;
  config.walk_len = 3;
  config.num_neg = 3;
  config.seed = 5;

  auto train = [&](bool traced) {
    GlobalTraceScope scope(traced);
    SupaModel model(data, config);
    for (size_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(model.TrainEdge(data.edges[i]).ok());
      EXPECT_TRUE(model.ObserveEdge(data.edges[i]).ok());
    }
    if (traced) {
      // Sanity: the traced run actually recorded training spans.
      EXPECT_GT(TraceRecorder::Global().recorded_events(), 0u);
    }
    return model.TakeSnapshot();
  };

  const auto traced = train(true);
  const auto plain = train(false);
  EXPECT_EQ(traced.params, plain.params);
}

}  // namespace
}  // namespace supa::obs
