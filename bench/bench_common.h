// Shared plumbing for the table/figure reproduction harnesses: environment
// knobs, fixed-width table printing, and TSV report output.
//
// Environment variables honored by every harness:
//   SUPA_BENCH_SCALE       dataset size multiplier (default 1.0)
//   SUPA_BENCH_EFFORT      training effort multiplier (default 1.0)
//   SUPA_BENCH_TEST_EDGES  test cases per evaluation (default 300)
//   SUPA_BENCH_SEEDS       repetitions for significance tests (default 2)
//   SUPA_BENCH_THREADS     eval worker threads (default 0 = all cores;
//                          results are thread-count invariant)
//   SUPA_SHARDS            storage-engine shard count (default 1), read by
//                          the library itself; placement only — metrics,
//                          bench tables, and checkpoint bytes are
//                          bit-identical at every value
//   SUPA_METRICS_OUT       write a metrics-registry JSON snapshot here at
//                          process exit
//   SUPA_TRACE_OUT         enable trace spans and write Chrome trace JSON
//                          here at process exit
//   SUPA_PERF_OUT          enable hardware-counter profiling and write the
//                          per-domain profile JSON here at process exit
//   SUPA_MODEL_OUT         enable the model monitor and write its report
//                          JSON (sketch quantiles, drift, alerts) here at
//                          process exit
//   SUPA_ADMIN_PORT        serve /metrics /healthz /statusz /tracez
//                          /profilez /modelz on
//                          127.0.0.1 at this port for the whole run
//                          (0 = ephemeral; the bound port is printed to
//                          stderr)
// Command line:
//   --out <path>           additionally write the rows as TSV
//   --json-out <path>      additionally write the rows as JSON

#ifndef SUPA_BENCH_BENCH_COMMON_H_
#define SUPA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/admin_server.h"
#include "obs/exports.h"
#include "obs/json_writer.h"
#include "util/logging.h"
#include "util/tsv.h"

namespace supa::bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  auto parsed = ParseDouble(v);
  return parsed.ok() ? parsed.value() : fallback;
}

inline size_t EnvSize(const char* name, size_t fallback) {
  return static_cast<size_t>(
      EnvDouble(name, static_cast<double>(fallback)));
}

/// The export paths named by SUPA_METRICS_OUT / SUPA_TRACE_OUT /
/// SUPA_PERF_OUT / SUPA_MODEL_OUT (unset = skipped).
inline obs::ExportPaths ExportPathsFromEnv() {
  const auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v == nullptr ? "" : v);
  };
  obs::ExportPaths paths;
  paths.metrics = env("SUPA_METRICS_OUT");
  paths.trace = env("SUPA_TRACE_OUT");
  paths.perf = env("SUPA_PERF_OUT");
  paths.model = env("SUPA_MODEL_OUT");
  return paths;
}

/// Honors SUPA_ADMIN_PORT and the export paths above: starts the HTTP
/// admin server when a port is set, turns on the instruments whose export
/// is asked for, and installs one atexit hook that writes the exports when
/// the harness ends (normal return or std::exit). Idempotent, so every
/// BenchEnv construction may call it.
inline void InitObservabilityFromEnv() {
  static const bool installed = [] {
    if (const char* port_text = std::getenv("SUPA_ADMIN_PORT")) {
      auto port = ParseUint(port_text);
      if (port.ok() && port.value() <= 65535) {
        obs::AdminServerOptions options;
        options.port = static_cast<uint16_t>(port.value());
        // Leaked on purpose: serves until process exit, and everything it
        // reads (metrics / trace / status registries) is a leaked
        // singleton too.
        auto* admin = new obs::AdminServer(options);
        std::string error;
        if (admin->Start(&error)) {
          std::fprintf(stderr,
                       "admin server listening on http://127.0.0.1:%u\n",
                       admin->port());
        } else {
          std::fprintf(stderr, "admin server failed to start: %s\n",
                       error.c_str());
        }
      } else {
        std::fprintf(stderr, "bad SUPA_ADMIN_PORT: %s\n", port_text);
      }
    }
    obs::StartExports(ExportPathsFromEnv());
    std::atexit([] { obs::FinishExports(ExportPathsFromEnv()); });
    return true;
  }();
  (void)installed;
}

/// The standard knobs, read once per harness. Constructing the env also
/// arms the observability exports above — every harness constructs one, so
/// SUPA_METRICS_OUT / SUPA_TRACE_OUT work across the whole bench suite.
struct BenchEnv {
  BenchEnv() { InitObservabilityFromEnv(); }

  double scale = EnvDouble("SUPA_BENCH_SCALE", 1.0);
  double effort = EnvDouble("SUPA_BENCH_EFFORT", 1.0);
  size_t test_edges = EnvSize("SUPA_BENCH_TEST_EDGES", 300);
  size_t seeds = EnvSize("SUPA_BENCH_SEEDS", 2);
  size_t threads = EnvSize("SUPA_BENCH_THREADS", 0);
};

/// Accumulates rows, prints an aligned text table, optionally writes TSV.
class Report {
 public:
  explicit Report(std::string title) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header) {
    header_ = std::move(header);
  }

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Prints the table to stdout.
  void Print() const {
    std::printf("\n== %s ==\n", title_.c_str());
    std::vector<size_t> widths;
    auto widen = [&](const std::vector<std::string>& row) {
      if (widths.size() < row.size()) widths.resize(row.size(), 0);
      for (size_t i = 0; i < row.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
    std::fflush(stdout);
  }

  /// Writes header + rows as TSV when `path` is non-empty.
  void MaybeWriteTsv(const std::string& path) const {
    if (path.empty()) return;
    std::vector<std::vector<std::string>> all;
    all.push_back(header_);
    for (const auto& row : rows_) all.push_back(row);
    Status st = WriteTsv(path, all);
    if (!st.ok()) {
      SUPA_LOG(ERROR) << "failed to write " << path << ": " << st.ToString();
    } else {
      std::printf("(wrote %s)\n", path.c_str());
    }
  }

  /// Writes the table as JSON when `path` is non-empty:
  /// {"title": ..., "header": [...], "rows": [[...], ...]}. Cells stay
  /// strings — the report layer formats, consumers parse what they need.
  void MaybeWriteJson(const std::string& path) const {
    if (path.empty()) return;
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("title", title_);
    w.Key("header").BeginArray();
    for (const auto& cell : header_) w.String(cell);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : rows_) {
      w.BeginArray();
      for (const auto& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    std::string error;
    if (!obs::WriteTextFile(path, w.str(), &error)) {
      SUPA_LOG(ERROR) << "failed to write " << path << ": " << error;
    } else {
      std::printf("(wrote %s)\n", path.c_str());
    }
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses `--<flag> <path>` from argv; empty when absent.
inline std::string FlagPath(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return "";
}

/// Parses `--out <path>` from argv; empty when absent.
inline std::string OutPath(int argc, char** argv) {
  return FlagPath(argc, argv, "--out");
}

/// Parses `--json-out <path>` from argv; empty when absent.
inline std::string JsonOutPath(int argc, char** argv) {
  return FlagPath(argc, argv, "--json-out");
}

/// Fixed-precision formatting for metric cells.
inline std::string Fmt(double x, int digits = 4) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
  return buf;
}

}  // namespace supa::bench

#endif  // SUPA_BENCH_BENCH_COMMON_H_
