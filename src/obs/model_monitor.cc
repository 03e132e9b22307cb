#include "obs/model_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_writer.h"
#include "obs/prometheus.h"

namespace supa::obs {

const char* AlertLevelName(AlertLevel level) {
  switch (level) {
    case AlertLevel::kOk:
      return "ok";
    case AlertLevel::kWarn:
      return "warn";
    case AlertLevel::kCritical:
      return "critical";
  }
  return "unknown";
}

MeanShiftDetector::MeanShiftDetector(DriftDetectorOptions options)
    : options_(options) {}

bool MeanShiftDetector::Observe(double window_mean) {
  last_mean_ = window_mean;
  ++windows_;
  if (windows_ == 1) {
    mean_ = window_mean;
    var_ = 0.0;
    last_z_ = 0.0;
    return drifted_;
  }
  const double sigma = std::max(std::sqrt(var_), options_.min_sigma);
  const double z = (window_mean - mean_) / sigma;
  const bool warm =
      windows_ <= static_cast<uint64_t>(options_.warmup_windows);
  last_z_ = warm ? 0.0 : z;
  const bool shifted = !warm && std::abs(z) > options_.z_threshold;
  if (shifted) {
    if (++consecutive_ >= options_.consecutive_required) drifted_ = true;
    // Freeze the baseline while out of control: a persistent step change
    // keeps scoring as shifted instead of being absorbed into the EWMA.
    return drifted_;
  }
  consecutive_ = 0;
  const double diff = window_mean - mean_;
  const double incr = options_.ewma_alpha * diff;
  mean_ += incr;
  var_ = (1.0 - options_.ewma_alpha) * (var_ + diff * incr);
  return drifted_;
}

void MeanShiftDetector::Reset() {
  mean_ = 0.0;
  var_ = 0.0;
  last_z_ = 0.0;
  last_mean_ = 0.0;
  windows_ = 0;
  consecutive_ = 0;
  drifted_ = false;
}

ModelMonitor& ModelMonitor::Global() {
  static ModelMonitor* monitor = new ModelMonitor();  // leaked singleton
  return *monitor;
}

ModelMonitor::ModelMonitor()
    : train_loss_(0.01),
      grad_norm_(0.01),
      step_norm_(0.01),
      row_norm_delta_(0.01),
      degree_(0.01),
      serve_score_(0.01) {
  Configure(ModelMonitorOptions());
}

void ModelMonitor::Configure(const ModelMonitorOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  train_loss_ = QuantileSketch(options.sketch_alpha);
  grad_norm_ = QuantileSketch(options.sketch_alpha);
  step_norm_ = QuantileSketch(options.sketch_alpha);
  row_norm_delta_ = QuantileSketch(options.sketch_alpha);
  degree_ = QuantileSketch(options.sketch_alpha);
  serve_score_ = QuantileSketch(options.sketch_alpha);
  distinct_users_.Reset();
  distinct_items_.Reset();
  train_steps_ = observed_edges_ = serve_scores_ = 0;
  new_nodes_ = non_finite_events_ = 0;
  auto init_series = [&](Series* s, const char* name, size_t window) {
    s->name = name;
    s->window = std::max<size_t>(1, window);
    s->window_sum = 0.0;
    s->window_count = 0;
    s->detector = MeanShiftDetector(options.drift);
  };
  init_series(&loss_series_, "train_loss", options.window_edges);
  init_series(&grad_series_, "grad_norm", options.window_edges);
  init_series(&degree_series_, "degree_mean", options.window_edges);
  init_series(&new_node_series_, "new_node_rate", options.window_edges);
  init_series(&score_series_, "serve_score", options.window_scores);
  alerts_.clear();
  worst_level_.store(0, std::memory_order_relaxed);
}

void ModelMonitor::Reset() { Configure(options_); }

void ModelMonitor::RaiseAlert(const std::string& name, AlertLevel level,
                              const std::string& detail) {
  for (ModelAlert& alert : alerts_) {
    if (alert.name == name) {
      alert.level = std::max(alert.level, level);
      alert.detail = detail;
      ++alert.count;
      if (static_cast<int>(alert.level) >
          worst_level_.load(std::memory_order_relaxed)) {
        worst_level_.store(static_cast<int>(alert.level),
                           std::memory_order_relaxed);
      }
      alerts_raised_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  alerts_.push_back(ModelAlert{name, level, detail, 1});
  if (static_cast<int>(level) >
      worst_level_.load(std::memory_order_relaxed)) {
    worst_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  alerts_raised_.fetch_add(1, std::memory_order_relaxed);
}

void ModelMonitor::FeedWindowed(Series* series, double value) {
  series->window_sum += value;
  if (++series->window_count < series->window) return;
  const double mean =
      series->window_sum / static_cast<double>(series->window_count);
  series->window_sum = 0.0;
  series->window_count = 0;
  const bool was_drifted = series->detector.drifted();
  if (series->detector.Observe(mean) && !was_drifted) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "mean shift: window mean %.6g vs baseline %.6g "
                  "(z=%.2f)",
                  series->detector.last_window_mean(),
                  series->detector.baseline_mean(),
                  series->detector.last_z());
    RaiseAlert(series->name, AlertLevel::kWarn, detail);
  }
}

void ModelMonitor::RecordSignal(Series* series, QuantileSketch* sketch,
                                double value, const char* what) {
  if (!std::isfinite(value)) {
    ++non_finite_events_;
    RaiseAlert(series != nullptr ? series->name : what,
               AlertLevel::kCritical,
               std::string("non-finite ") + what);
    return;
  }
  sketch->Add(value);
  if (series != nullptr) FeedWindowed(series, value);
}

void ModelMonitor::RecordTrainStep(double loss_inter, double loss_prop,
                                   double loss_neg, double grad_norm,
                                   double step_norm, double row_norm_before,
                                   double row_norm_after) {
  std::lock_guard<std::mutex> lock(mu_);
  ++train_steps_;
  const double loss_total = loss_inter + loss_prop + loss_neg;
  RecordSignal(&loss_series_, &train_loss_, loss_total, "loss");
  RecordSignal(&grad_series_, &grad_norm_, grad_norm, "gradient norm");
  RecordSignal(nullptr, &step_norm_, step_norm, "optimizer step norm");
  const double delta = row_norm_after - row_norm_before;
  RecordSignal(nullptr, &row_norm_delta_, delta, "row norm delta");
  if (std::isfinite(grad_norm) && grad_norm > options_.explode_grad_norm) {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "exploding gradient norm %.6g (threshold %.6g)",
                  grad_norm, options_.explode_grad_norm);
    RaiseAlert("grad_norm", AlertLevel::kCritical, detail);
  }
}

void ModelMonitor::RecordObservedEdge(uint64_t src, uint64_t dst,
                                      double src_degree, double dst_degree,
                                      bool src_is_new, bool dst_is_new) {
  std::lock_guard<std::mutex> lock(mu_);
  ++observed_edges_;
  distinct_users_.Add(src);
  distinct_items_.Add(dst);
  degree_.Add(src_degree);
  degree_.Add(dst_degree);
  FeedWindowed(&degree_series_, 0.5 * (src_degree + dst_degree));
  const int fresh = (src_is_new ? 1 : 0) + (dst_is_new ? 1 : 0);
  new_nodes_ += static_cast<uint64_t>(fresh);
  FeedWindowed(&new_node_series_, 0.5 * fresh);
}

void ModelMonitor::RecordServeScores(const float* scores, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  serve_scores_ += n;
  for (size_t i = 0; i < n; ++i) {
    const double s = static_cast<double>(scores[i]);
    if (!std::isfinite(s)) {
      ++non_finite_events_;
      RaiseAlert("serve_score", AlertLevel::kCritical,
                 "non-finite serve score");
      continue;
    }
    serve_score_.Add(s);
    FeedWindowed(&score_series_, s);
  }
}

ModelMonitorSnapshot ModelMonitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ModelMonitorSnapshot out;
  out.enabled = enabled();
  out.train_steps = train_steps_;
  out.observed_edges = observed_edges_;
  out.serve_scores = serve_scores_;
  out.new_nodes = new_nodes_;
  out.non_finite_events = non_finite_events_;
  out.train_loss = train_loss_;
  out.grad_norm = grad_norm_;
  out.step_norm = step_norm_;
  out.row_norm_delta = row_norm_delta_;
  out.degree = degree_;
  out.serve_score = serve_score_;
  out.distinct_users = distinct_users_.Estimate();
  out.distinct_items = distinct_items_.Estimate();
  out.new_node_rate =
      observed_edges_ > 0
          ? static_cast<double>(new_nodes_) /
                static_cast<double>(2 * observed_edges_)
          : 0.0;
  out.worst_level = worst_level();
  out.alerts = alerts_;
  for (const Series* s : {&loss_series_, &grad_series_, &degree_series_,
                          &new_node_series_, &score_series_}) {
    ModelDriftState d;
    d.name = s->name;
    d.drifted = s->detector.drifted();
    d.last_z = s->detector.last_z();
    d.baseline_mean = s->detector.baseline_mean();
    d.last_window_mean = s->detector.last_window_mean();
    d.windows = s->detector.windows();
    out.drift.push_back(std::move(d));
  }
  return out;
}

bool ModelMonitor::HealthVeto(std::string* reason) const {
  if (!enabled()) return false;
  if (worst_level() != AlertLevel::kCritical) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const ModelAlert& alert : alerts_) {
    if (alert.level == AlertLevel::kCritical) {
      if (reason != nullptr) *reason = alert.name + ": " + alert.detail;
      return true;
    }
  }
  if (reason != nullptr) *reason = "critical model alert";
  return true;
}

namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

void WriteSketchJson(JsonWriter* w, const QuantileSketch& s) {
  w->BeginObject();
  w->Field("count", s.count());
  w->Field("mean", s.Mean());
  w->Field("min", s.min());
  w->Field("max", s.max());
  w->Field("p50", s.Quantile(0.5));
  w->Field("p90", s.Quantile(0.9));
  w->Field("p99", s.Quantile(0.99));
  w->Field("non_finite", s.non_finite_count());
  w->EndObject();
}

struct NamedSketch {
  const char* name;
  const QuantileSketch* sketch;
};

std::vector<NamedSketch> SketchList(const ModelMonitorSnapshot& s) {
  return {{"train_loss", &s.train_loss},
          {"grad_norm", &s.grad_norm},
          {"step_norm", &s.step_norm},
          {"row_norm_delta", &s.row_norm_delta},
          {"degree", &s.degree},
          {"serve_score", &s.serve_score}};
}

}  // namespace

std::string ModelReportJson(const ModelMonitorSnapshot& snapshot) {
  JsonWriter w;
  w.BeginObject();
  w.Field("enabled", snapshot.enabled);
  w.Field("alert_level",
          std::string_view(AlertLevelName(snapshot.worst_level)));
  w.Field("train_steps", snapshot.train_steps);
  w.Field("observed_edges", snapshot.observed_edges);
  w.Field("serve_scores", snapshot.serve_scores);
  w.Field("non_finite_events", snapshot.non_finite_events);
  w.Key("stream").BeginObject();
  w.Field("distinct_users", snapshot.distinct_users);
  w.Field("distinct_items", snapshot.distinct_items);
  w.Field("new_nodes", snapshot.new_nodes);
  w.Field("new_node_rate", snapshot.new_node_rate);
  w.EndObject();
  w.Key("sketches").BeginObject();
  for (const NamedSketch& ns : SketchList(snapshot)) {
    w.Key(ns.name);
    WriteSketchJson(&w, *ns.sketch);
  }
  w.EndObject();
  w.Key("drift").BeginArray();
  for (const ModelDriftState& d : snapshot.drift) {
    w.BeginObject();
    w.Field("series", std::string_view(d.name));
    w.Field("drifted", d.drifted);
    w.Field("last_z", d.last_z);
    w.Field("baseline_mean", d.baseline_mean);
    w.Field("last_window_mean", d.last_window_mean);
    w.Field("windows", d.windows);
    w.EndObject();
  }
  w.EndArray();
  w.Key("alerts").BeginArray();
  for (const ModelAlert& a : snapshot.alerts) {
    w.BeginObject();
    w.Field("name", std::string_view(a.name));
    w.Field("level", std::string_view(AlertLevelName(a.level)));
    w.Field("detail", std::string_view(a.detail));
    w.Field("count", a.count);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void AppendModelPrometheusSeries(const ModelMonitorSnapshot& snapshot,
                                 std::string* out) {
  AppendPrometheusSeries("model_monitor_enabled", "gauge",
                         "1 when the model monitor is recording.", {},
                         snapshot.enabled ? 1.0 : 0.0, out);
  AppendPrometheusSeries(
      "model_alert_level", "gauge",
      "Worst active model alert (0 ok, 1 warn, 2 critical).", {},
      static_cast<double>(static_cast<int>(snapshot.worst_level)), out);
  AppendPrometheusSeries("model_train_steps_total", "counter",
                         "Training steps recorded by the model monitor.",
                         {}, static_cast<double>(snapshot.train_steps), out);
  AppendPrometheusSeries(
      "model_observed_edges_total", "counter",
      "Ingested edges recorded by the model monitor.", {},
      static_cast<double>(snapshot.observed_edges), out);
  AppendPrometheusSeries("model_serve_scores_total", "counter",
                         "Serve-time scores recorded by the model monitor.",
                         {}, static_cast<double>(snapshot.serve_scores),
                         out);
  AppendPrometheusSeries(
      "model_non_finite_events_total", "counter",
      "NaN/Inf training or serving signals seen.", {},
      static_cast<double>(snapshot.non_finite_events), out);
  AppendPrometheusSeries("model_distinct_users", "gauge",
                         "HLL-estimated distinct source nodes ingested.", {},
                         snapshot.distinct_users, out);
  AppendPrometheusSeries("model_distinct_items", "gauge",
                         "HLL-estimated distinct destination nodes ingested.",
                         {}, snapshot.distinct_items, out);
  AppendPrometheusSeries("model_new_node_rate", "gauge",
                         "Fraction of observed endpoints new to the graph.",
                         {}, snapshot.new_node_rate, out);
  char q[16];
  for (const NamedSketch& ns : SketchList(snapshot)) {
    const std::string name = std::string("model_") + ns.name;
    for (double quantile : kQuantiles) {
      std::snprintf(q, sizeof(q), "%g", quantile);
      AppendPrometheusSeries(
          name, "gauge", "Sketch quantile of the monitored model signal.",
          {{"quantile", q}}, ns.sketch->Quantile(quantile), out);
    }
  }
  for (const ModelDriftState& d : snapshot.drift) {
    AppendPrometheusSeries("model_drift", "gauge",
                           "1 when the series' mean-shift detector latched.",
                           {{"series", d.name}}, d.drifted ? 1.0 : 0.0, out);
  }
}

}  // namespace supa::obs
