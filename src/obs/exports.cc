#include "obs/exports.h"

#include <cstdio>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace supa::obs {
namespace {

/// Writes `json` to `path` and reports "<what> -> <path>" on stderr.
bool Export(const std::string& path, const std::string& what,
            const std::string& json) {
  std::string error;
  if (!WriteTextFile(path, json + "\n", &error)) {
    std::fprintf(stderr, "failed to write %s %s: %s\n", what.c_str(),
                 path.c_str(), error.c_str());
    return false;
  }
  std::fprintf(stderr, "%s -> %s\n", what.c_str(), path.c_str());
  return true;
}

}  // namespace

void StartExports(const ExportPaths& paths) {
  if (!paths.trace.empty()) TraceRecorder::Global().Enable(true);
  if (!paths.perf.empty()) PerfProfiler::Global().Enable(true);
  if (!paths.model.empty()) ModelMonitor::Global().Enable(true);
}

bool FinishExports(const ExportPaths& paths) {
  bool ok = true;
  if (!paths.trace.empty()) {
    TraceRecorder& trace = TraceRecorder::Global();
    trace.Enable(false);
    ok &= Export(paths.trace,
                 "trace (" + std::to_string(trace.recorded_events()) +
                     " spans)",
                 trace.ToJson());
  }
  if (!paths.perf.empty()) {
    PerfProfiler& perf = PerfProfiler::Global();
    perf.Enable(false);
    ok &= Export(paths.perf,
                 std::string("perf profile (source=") +
                     PerfSourceName(perf.source()) + ")",
                 PerfReportJson(MetricsRegistry::Global().Snapshot()));
  }
  if (!paths.model.empty()) {
    ModelMonitor& monitor = ModelMonitor::Global();
    monitor.Enable(false);
    const ModelMonitorSnapshot model = monitor.Snapshot();
    ok &= Export(paths.model,
                 "model report (" + std::to_string(model.train_steps) +
                     " train steps, alert level " +
                     AlertLevelName(model.worst_level) + ")",
                 ModelReportJson(model));
  }
  if (!paths.metrics.empty()) {
    ok &= Export(paths.metrics, "metrics",
                 MetricsRegistry::Global().Snapshot().ToJson());
  }
  return ok;
}

}  // namespace supa::obs
