#include "obs/model_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace supa::obs {
namespace {

/// Fresh monitor with small windows so tests can close drift windows
/// with few records.
ModelMonitorOptions SmallWindows() {
  ModelMonitorOptions options;
  options.window_edges = 16;
  options.window_scores = 16;
  options.drift.warmup_windows = 4;
  options.drift.consecutive_required = 2;
  return options;
}

TEST(MeanShiftDetectorTest, StableSeriesNeverDrifts) {
  MeanShiftDetector detector;
  for (int i = 0; i < 200; ++i) {
    detector.Observe(1.0 + 0.01 * ((i % 7) - 3));
  }
  EXPECT_FALSE(detector.drifted());
}

TEST(MeanShiftDetectorTest, StepChangeLatchesAfterConsecutiveWindows) {
  DriftDetectorOptions options;
  options.warmup_windows = 8;
  options.consecutive_required = 2;
  MeanShiftDetector detector(options);
  for (int i = 0; i < 50; ++i) {
    detector.Observe(1.0 + 0.02 * ((i % 5) - 2));
  }
  ASSERT_FALSE(detector.drifted());
  detector.Observe(5.0);
  EXPECT_FALSE(detector.drifted()) << "one shifted window must not latch";
  detector.Observe(5.0);
  EXPECT_TRUE(detector.drifted());
  // The baseline froze during the shift, so it still reflects pre-shift
  // behaviour rather than absorbing the new level.
  EXPECT_LT(detector.baseline_mean(), 2.0);
}

TEST(MeanShiftDetectorTest, WarmupWindowsAreNeverScored) {
  DriftDetectorOptions options;
  options.warmup_windows = 8;
  MeanShiftDetector detector(options);
  detector.Observe(1.0);
  detector.Observe(100.0);  // wild, but still warming up
  detector.Observe(1.0);
  EXPECT_FALSE(detector.drifted());
}

TEST(ModelMonitorTest, DisabledByDefaultAndNeverVetoes) {
  ModelMonitor monitor;
  EXPECT_FALSE(monitor.enabled());
  std::string reason;
  EXPECT_FALSE(monitor.HealthVeto(&reason));
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
}

TEST(ModelMonitorTest, NanGradientRaisesCriticalAndVetoesHealth) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  monitor.RecordTrainStep(0.5, 0.1, 0.2, std::nan(""), 0.01, 1.0, 1.0);
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kCritical);
  std::string reason;
  ASSERT_TRUE(monitor.HealthVeto(&reason));
  EXPECT_NE(reason.find("grad"), std::string::npos) << reason;
  // A disabled monitor must never veto, even with the alert latched.
  monitor.Enable(false);
  EXPECT_FALSE(monitor.HealthVeto(&reason));
}

TEST(ModelMonitorTest, ExplodingGradientNormIsCritical) {
  ModelMonitor monitor;
  ModelMonitorOptions options = SmallWindows();
  options.explode_grad_norm = 100.0;
  monitor.Configure(options);
  monitor.Enable(true);
  monitor.RecordTrainStep(0.5, 0.1, 0.2, 1e6, 0.01, 1.0, 1.0);
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kCritical);
  std::string reason;
  ASSERT_TRUE(monitor.HealthVeto(&reason));
  EXPECT_NE(reason.find("exploding"), std::string::npos) << reason;
}

TEST(ModelMonitorTest, HealthySignalsStayOk) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  for (int i = 0; i < 500; ++i) {
    monitor.RecordTrainStep(0.5, 0.1, 0.2, 0.8 + 0.01 * (i % 5), 0.01,
                            1.0, 1.001);
  }
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();
  EXPECT_EQ(snapshot.train_steps, 500u);
  EXPECT_EQ(snapshot.train_loss.count(), 500u);
  EXPECT_NEAR(snapshot.train_loss.Mean(), 0.8, 1e-9);
  EXPECT_TRUE(snapshot.alerts.empty());
}

TEST(ModelMonitorTest, LossMeanShiftRaisesDriftWarning) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  // Phase 1: stable loss around 0.8 (warms up and baselines).
  for (int i = 0; i < 16 * 20; ++i) {
    monitor.RecordTrainStep(0.5, 0.1, 0.2 + 0.005 * (i % 4), 1.0, 0.01,
                            1.0, 1.0);
  }
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
  // Phase 2: loss steps up 5x — a drift warning, not a critical alert.
  for (int i = 0; i < 16 * 6; ++i) {
    monitor.RecordTrainStep(2.5, 0.5, 1.0, 1.0, 0.01, 1.0, 1.0);
  }
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kWarn);
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();
  bool found = false;
  for (const ModelAlert& alert : snapshot.alerts) {
    if (alert.name == "train_loss") {
      found = true;
      EXPECT_EQ(alert.level, AlertLevel::kWarn);
    }
  }
  EXPECT_TRUE(found);
  std::string reason;
  EXPECT_FALSE(monitor.HealthVeto(&reason)) << "warn must not veto health";
}

TEST(ModelMonitorTest, ZipfSkewFlipInStreamRaisesDegreeDrift) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  // Phase 1: near-uniform traffic — touched-node degrees stay small.
  uint64_t next_node = 0;
  for (int i = 0; i < 16 * 20; ++i) {
    monitor.RecordObservedEdge(next_node, next_node + 1, 1.0 + (i % 3),
                               1.0 + ((i + 1) % 3), false, false);
    next_node += 2;
  }
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
  // Phase 2: the stream flips to Zipf-hot — every edge hammers one hot
  // node whose degree keeps climbing.
  double hot_degree = 1000.0;
  for (int i = 0; i < 16 * 6; ++i) {
    monitor.RecordObservedEdge(7, next_node, hot_degree, 1.0, false, true);
    hot_degree += 1.0;
    ++next_node;
  }
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();
  bool degree_drifted = false;
  for (const ModelDriftState& d : snapshot.drift) {
    if (d.name == "degree_mean") degree_drifted = d.drifted;
  }
  EXPECT_TRUE(degree_drifted);
  EXPECT_EQ(snapshot.worst_level, AlertLevel::kWarn);
}

TEST(ModelMonitorTest, StreamStatsTrackDistinctsAndNewNodes) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  for (uint64_t i = 0; i < 5000; ++i) {
    monitor.RecordObservedEdge(i % 1000, 100000 + i, 1.0, 1.0,
                               /*src_is_new=*/i < 1000,
                               /*dst_is_new=*/true);
  }
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();
  EXPECT_EQ(snapshot.observed_edges, 5000u);
  EXPECT_NEAR(snapshot.distinct_users, 1000.0, 50.0);
  EXPECT_NEAR(snapshot.distinct_items, 5000.0, 250.0);
  EXPECT_EQ(snapshot.new_nodes, 6000u);
  EXPECT_NEAR(snapshot.new_node_rate, 0.6, 1e-9);
  EXPECT_EQ(snapshot.degree.count(), 10000u);
}

// Every batch is a rotation of the same 8 values, multiples of 1/8 whose
// sums are exact in any order. A batch enters under one lock, so each
// 16-score window holds two whole batches and has the same mean under any
// interleaving of the threads: the drift detector sees a flat series.
TEST(ModelMonitorTest, ServeScoresAreThreadSafeAndSketched) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&monitor, t] {
      std::vector<float> scores(8);
      for (int i = 0; i < 250; ++i) {
        for (size_t j = 0; j < scores.size(); ++j) {
          scores[j] = 0.125f * static_cast<float>((t + i + j) % 8);
        }
        monitor.RecordServeScores(scores.data(), scores.size());
      }
    });
  }
  for (auto& w : workers) w.join();
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();
  EXPECT_EQ(snapshot.serve_scores, 4u * 250u * 8u);
  EXPECT_EQ(snapshot.serve_score.count(), 4u * 250u * 8u);
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
}

TEST(ModelMonitorTest, ResetClearsAlertsAndState) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  monitor.RecordTrainStep(0.5, 0.1, 0.2, std::nan(""), 0.01, 1.0, 1.0);
  ASSERT_EQ(monitor.worst_level(), AlertLevel::kCritical);
  monitor.Reset();
  EXPECT_EQ(monitor.worst_level(), AlertLevel::kOk);
  std::string reason;
  EXPECT_FALSE(monitor.HealthVeto(&reason));
  EXPECT_EQ(monitor.Snapshot().train_steps, 0u);
  EXPECT_TRUE(monitor.enabled()) << "Reset must not flip the enable bit";
}

TEST(ModelMonitorTest, ReportsRenderAllSurfaces) {
  ModelMonitor monitor;
  monitor.Configure(SmallWindows());
  monitor.Enable(true);
  for (int i = 0; i < 100; ++i) {
    monitor.RecordTrainStep(0.4, 0.1, 0.1, 0.9, 0.02, 1.0, 1.01);
    monitor.RecordObservedEdge(i, 1000 + i, 1.0, 2.0, true, true);
  }
  float scores[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  monitor.RecordServeScores(scores, 4);
  const ModelMonitorSnapshot snapshot = monitor.Snapshot();

  const std::string json = ModelReportJson(snapshot);
  EXPECT_NE(json.find("\"train_steps\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sketches\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\""), std::string::npos);

  std::string prom;
  AppendModelPrometheusSeries(snapshot, &prom);
  EXPECT_NE(prom.find("model_train_steps_total"), std::string::npos);
  EXPECT_NE(prom.find("model_train_loss{quantile=\"0.5\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("model_alert_level"), std::string::npos);
  EXPECT_NE(prom.find("model_distinct_users"), std::string::npos);
  EXPECT_NE(prom.find("model_drift{series=\"train_loss\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace supa::obs
