// Model & data-quality monitor: streaming distributions of training
// signals (loss terms, gradient norms, optimizer step magnitudes,
// embedding-row norm deltas), ingest stream statistics (distinct
// users/items, degree quantiles, new-node rate), and serve-time score
// distributions — with EWMA mean-shift drift detectors that raise
// leveled alerts.
//
// Contract (mirrors TraceRecorder / PerfProfiler):
//   * Disabled cost is ONE relaxed atomic load (`enabled()`); callers
//     guard every Record* call with it, so a disabled monitor adds no
//     work, no locks, and no allocation to the hot path.
//   * Enabled recording is allocation-free in steady state: all sketches
//     and detector state are sized at Configure/construction time.
//   * Recording only *reads* already-computed training values — it never
//     touches model parameters, optimizer state, or any application RNG
//     stream, so training is bit-identical with monitoring on or off.
//   * All Record* methods are thread-safe (one short internal mutex);
//     training-side records are effectively serial (trainer loop or
//     ingest dispatcher), serve-side records come from worker threads.
//
// Alert ladder: kOk → kWarn (drift detected on some monitored series;
// surfaced on /statusz and /modelz) → kCritical (NaN/Inf training
// signal or exploding gradient norm; vetoes /healthz with a reason).
//
// Like everything in obs/, this depends only on the standard library.
// The monitor never logs — core code polls `worst_level()` and the
// alert list and does its own (rate-limited) logging.

#ifndef SUPA_OBS_MODEL_MONITOR_H_
#define SUPA_OBS_MODEL_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sketch.h"

namespace supa::obs {

/// Severity ladder for model alerts.
enum class AlertLevel : int { kOk = 0, kWarn = 1, kCritical = 2 };

/// Human tag for a level ("ok", "warn", "critical").
const char* AlertLevelName(AlertLevel level);

/// Tuning for one EWMA mean-shift detector.
struct DriftDetectorOptions {
  /// EWMA smoothing factor for the baseline mean/variance.
  double ewma_alpha = 0.1;
  /// |z| threshold a window mean must exceed to count as shifted.
  double z_threshold = 4.0;
  /// Windows consumed before shifts are scored (baseline warm-up).
  int warmup_windows = 8;
  /// Consecutive shifted windows required to latch a drift alert.
  int consecutive_required = 2;
  /// Floor on the baseline sigma, so constant series (variance 0) still
  /// produce finite z-scores on a step change.
  double min_sigma = 1e-9;
};

/// EWMA mean-shift detector over a stream of window means. The baseline
/// (EWMA mean + variance) adapts only while the series is in-control;
/// once a window's |z| exceeds the threshold the baseline freezes, so a
/// persistent step change keeps scoring as shifted instead of being
/// absorbed. `consecutive_required` shifted windows latch `drifted()`.
class MeanShiftDetector {
 public:
  explicit MeanShiftDetector(DriftDetectorOptions options = {});

  /// Feeds one window mean; returns drifted() after the update.
  bool Observe(double window_mean);

  bool drifted() const { return drifted_; }
  double last_z() const { return last_z_; }
  double baseline_mean() const { return mean_; }
  double last_window_mean() const { return last_mean_; }
  uint64_t windows() const { return windows_; }

  void Reset();

 private:
  DriftDetectorOptions options_;
  double mean_ = 0.0;
  double var_ = 0.0;
  double last_z_ = 0.0;
  double last_mean_ = 0.0;
  uint64_t windows_ = 0;
  int consecutive_ = 0;
  bool drifted_ = false;
};

/// Monitor configuration. Set via ModelMonitor::Configure before (or
/// while) enabling; Configure resets all accumulated state.
struct ModelMonitorOptions {
  /// Training/ingest records per drift window.
  size_t window_edges = 256;
  /// Serve scores per drift window.
  size_t window_scores = 1024;
  /// Gradient L2 norm above this raises a critical "exploding gradient"
  /// alert (vetoes /healthz), same as NaN/Inf.
  double explode_grad_norm = 1e6;
  /// Quantile-sketch relative-error target.
  double sketch_alpha = 0.01;
  /// Shared tuning for all drift detectors.
  DriftDetectorOptions drift;
};

/// One active alert, keyed by series name.
struct ModelAlert {
  std::string name;    // e.g. "train_loss", "grad_norm"
  AlertLevel level = AlertLevel::kOk;
  std::string detail;  // human reason, e.g. "non-finite gradient norm"
  uint64_t count = 0;  // times this alert fired
};

/// Drift-detector state for one monitored series, as exported.
struct ModelDriftState {
  std::string name;
  bool drifted = false;
  double last_z = 0.0;
  double baseline_mean = 0.0;
  double last_window_mean = 0.0;
  uint64_t windows = 0;
};

/// Point-in-time copy of everything the monitor knows, safe to render
/// without holding the monitor's lock.
struct ModelMonitorSnapshot {
  bool enabled = false;
  uint64_t train_steps = 0;
  uint64_t observed_edges = 0;
  uint64_t serve_scores = 0;
  uint64_t new_nodes = 0;
  uint64_t non_finite_events = 0;

  QuantileSketch train_loss;
  QuantileSketch grad_norm;
  QuantileSketch step_norm;
  QuantileSketch row_norm_delta;
  QuantileSketch degree;
  QuantileSketch serve_score;

  double distinct_users = 0.0;
  double distinct_items = 0.0;
  /// Cumulative fraction of observed edge endpoints that were new nodes.
  double new_node_rate = 0.0;

  AlertLevel worst_level = AlertLevel::kOk;
  std::vector<ModelAlert> alerts;
  std::vector<ModelDriftState> drift;
};

/// Process-wide model monitor. Leaked singleton, like the other obs
/// globals.
class ModelMonitor {
 public:
  static ModelMonitor& Global();

  ModelMonitor();

  /// Runtime switch. The only cost while disabled is the `enabled()`
  /// load callers use as a guard. Enabling does not clear prior state;
  /// call Reset or Configure for a clean slate.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Replaces the configuration and resets all accumulated state.
  void Configure(const ModelMonitorOptions& options);
  const ModelMonitorOptions& options() const { return options_; }

  /// Forgets all recorded state and active alerts (configuration kept).
  void Reset();

  /// Records one training step's already-computed signals. `loss_*` are
  /// the per-edge loss terms, `grad_norm` the L2 norm of the step's
  /// gradient buffer, `step_norm` the L2 norm of the applied optimizer
  /// update, and `row_norm_before/after` the L2 norms of the touched
  /// parameter rows before/after the update (non-finite values raise a
  /// critical alert). Call only when enabled().
  void RecordTrainStep(double loss_inter, double loss_prop, double loss_neg,
                       double grad_norm, double step_norm,
                       double row_norm_before, double row_norm_after);

  /// Records one observed (ingested) edge: endpoint ids for distinct
  /// counting, their post-insert degrees, and whether each endpoint was
  /// new to the graph. Call only when enabled().
  void RecordObservedEdge(uint64_t src, uint64_t dst, double src_degree,
                          double dst_degree, bool src_is_new,
                          bool dst_is_new);

  /// Records a batch of serve-time scores (one ranked response).
  /// Thread-safe; call only when enabled().
  void RecordServeScores(const float* scores, size_t n);

  ModelMonitorSnapshot Snapshot() const;

  /// Worst active alert level (relaxed load; cheap enough for /healthz).
  AlertLevel worst_level() const {
    return static_cast<AlertLevel>(
        worst_level_.load(std::memory_order_relaxed));
  }

  /// True when an enabled monitor holds a critical alert; fills `reason`
  /// with the first critical alert's name and detail. A disabled monitor
  /// never vetoes.
  bool HealthVeto(std::string* reason) const;

  /// Total alert firings (all levels), for change detection by pollers.
  uint64_t alerts_raised() const {
    return alerts_raised_.load(std::memory_order_relaxed);
  }

 private:
  struct Series;

  /// Feeds one value into a windowed drift series; on window close runs
  /// the detector and raises/updates a kWarn alert when it latches.
  /// Caller holds mu_.
  void FeedWindowed(Series* series, double value);

  /// Raises or bumps the alert keyed `name`. Caller holds mu_.
  void RaiseAlert(const std::string& name, AlertLevel level,
                  const std::string& detail);

  /// Records one scalar training/stream signal: sketch + drift window +
  /// non-finite check. Caller holds mu_.
  void RecordSignal(Series* series, QuantileSketch* sketch, double value,
                    const char* what);

  std::atomic<bool> enabled_{false};
  std::atomic<int> worst_level_{0};
  std::atomic<uint64_t> alerts_raised_{0};

  mutable std::mutex mu_;
  ModelMonitorOptions options_;

  uint64_t train_steps_ = 0;
  uint64_t observed_edges_ = 0;
  uint64_t serve_scores_ = 0;
  uint64_t new_nodes_ = 0;
  uint64_t non_finite_events_ = 0;

  QuantileSketch train_loss_;
  QuantileSketch grad_norm_;
  QuantileSketch step_norm_;
  QuantileSketch row_norm_delta_;
  QuantileSketch degree_;
  QuantileSketch serve_score_;

  Hll distinct_users_;
  Hll distinct_items_;

  struct Series {
    std::string name;
    size_t window = 256;
    double window_sum = 0.0;
    size_t window_count = 0;
    MeanShiftDetector detector;
  };
  Series loss_series_;
  Series grad_series_;
  Series degree_series_;
  Series new_node_series_;
  Series score_series_;

  std::vector<ModelAlert> alerts_;
};

/// JSON document for one snapshot (served by /modelz, whose HTML view the
/// admin server renders from it, and written by --model-out).
std::string ModelReportJson(const ModelMonitorSnapshot& snapshot);

/// Appends `model_*` Prometheus series (sketch quantiles as gauges,
/// totals as counters) for GET /metrics.
void AppendModelPrometheusSeries(const ModelMonitorSnapshot& snapshot,
                                 std::string* out);

}  // namespace supa::obs

#endif  // SUPA_OBS_MODEL_MONITOR_H_
