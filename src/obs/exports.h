// Turns the instruments on for a run and writes their exports when it
// ends: the one path behind supa_cli's --metrics-out, --trace-out,
// --perf-out and --model-out and the benches' SUPA_*_OUT variables.

#ifndef SUPA_OBS_EXPORTS_H_
#define SUPA_OBS_EXPORTS_H_

#include <string>

namespace supa::obs {

/// Where each export goes; an empty path skips it.
struct ExportPaths {
  std::string metrics;  // metrics-registry snapshot JSON
  std::string trace;    // Chrome trace JSON
  std::string perf;     // per-domain perf profile JSON (/profilez)
  std::string model;    // model-monitor report JSON (/modelz)
};

/// Turns on the trace recorder, the perf profiler and the model monitor
/// for each of their paths that is set.
void StartExports(const ExportPaths& paths);

/// Turns them off and writes each export whose path is set (metrics
/// last), one stderr line per file. False when a write failed; the others
/// are still written.
bool FinishExports(const ExportPaths& paths);

}  // namespace supa::obs

#endif  // SUPA_OBS_EXPORTS_H_
