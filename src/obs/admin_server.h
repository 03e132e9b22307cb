// Live telemetry surface: a small, dependency-free HTTP/1.1 admin server
// over POSIX sockets. One blocking accept loop on a named thread
// ("supa-admin") serves, sequentially per connection:
//
//   GET /           index page linking every endpoint below
//   GET /metrics    Prometheus text exposition v0.0.4 of the global
//                   metrics registry (see obs/prometheus.h)
//   GET /healthz    liveness + registered readiness probes (200 "ok" when
//                   every probe passes, 503 naming the failures)
//   GET /tracez     on-demand flight-recorder dump of the trace rings as
//                   Chrome trace JSON, without stopping the run
//   GET /statusz    build info, uptime, StatusRegistry sections, model
//                   alerts, and histogram quantiles
//   GET /profilez   hardware profile per phase (PerfReportJson)
//   GET /modelz     model observability: training-signal/stream/score
//                   sketch quantiles, drift detectors, and alerts
//                   (ModelReportJson)
//
// /statusz, /profilez and /modelz are JSON pages: one table in
// admin_server.cc gives each its path, title and JSON builder.
// ?format=json returns the builder's document; the default HTML view is
// rendered from that document by one renderer (objects as key/value
// tables, arrays as lists, every key and string HTML-escaped). An unknown
// format= value is a 400, never a silent HTML fallback. A critical model
// alert (NaN/Inf gradients, exploding norms — see obs/model_monitor.h)
// vetoes /healthz with a reason while the monitor is enabled. A HEAD
// request gets the headers a GET would, Content-Length included, and no
// body.
//
// Beyond the built-ins, AddRoute registers application handlers for an
// exact (method, path) pair — this is how the serving layer exposes
// POST /recommend without obs/ depending on it. Registered routes may use
// any method (the serve loop reads a Content-Length body for them);
// built-ins stay GET/HEAD-only. Handlers run on the admin thread,
// sequentially per connection, and must honor the same non-perturbation
// contract as the built-ins: snapshot reads only, no application locks.
//
// Shutdown uses the self-pipe trick: Stop() writes one byte to a pipe the
// serve loop polls alongside its sockets, so both an idle accept and an
// in-flight request wake immediately and Stop() joins cleanly.
//
// Serving a scrape must never perturb the workload being observed: every
// handler only snapshots the (lock-free) registries — no application
// state, locks, or RNG streams are touched. The admin thread itself
// records into the metrics registry (admin.* counters), which is additive
// and therefore invisible to training results (covered by the
// bit-identity test in obs_admin_server_test).
//
// Like everything in obs/, this depends only on the standard library and
// POSIX sockets; errors are reported as strings, not util/Status, to keep
// the layering (obs sits below util).

#ifndef SUPA_OBS_ADMIN_SERVER_H_
#define SUPA_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace supa::obs {

struct AdminServerOptions {
  /// Interface to bind; loopback by default — the admin surface is
  /// diagnostics, not a public API.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// listen(2) backlog. Connections are handled sequentially, so the
  /// backlog is also the bound on queued scrapes.
  int backlog = 16;
  /// Largest accepted request head; longer requests get 431.
  size_t max_request_bytes = 8192;
  /// Largest accepted request body (Content-Length above this gets 413).
  size_t max_body_bytes = 65536;
  /// Per-connection read/write deadline.
  int io_timeout_ms = 5000;
};

/// One parsed request as seen by AddRoute handlers.
struct HttpRequest {
  std::string method;
  std::string path;   // without query string
  std::string query;  // after '?', possibly empty
  std::string body;   // Content-Length bytes (registered routes only)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  explicit AdminServer(AdminServerOptions options = AdminServerOptions{});
  /// Stops the server if running.
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, and starts the serving thread. Returns false and
  /// fills `*error` (when non-null) on failure or if already running.
  bool Start(std::string* error);

  /// Signals the serving thread via the self-pipe and joins it. Any
  /// in-flight request is aborted (the poll on the connection also watches
  /// the pipe). Idempotent; the server may be Start()ed again afterwards.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves port 0 to the ephemeral port chosen by the
  /// kernel). 0 when not running.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Registers a readiness probe evaluated on every GET /healthz. Probes
  /// must be fast, thread-safe, and non-blocking (typical: one atomic
  /// load). May be called before or after Start().
  void AddReadinessProbe(std::string name, std::function<bool()> probe);

  /// Registers `handler` for requests matching (method, path) exactly.
  /// Routes take precedence over the built-in endpoints; later
  /// registrations of the same pair win. The handler runs on the admin
  /// thread and must stay valid until Stop() has returned (or the server
  /// is destroyed). May be called before or after Start().
  using RouteHandler = std::function<HttpResponse(const HttpRequest&)>;
  void AddRoute(std::string method, std::string path, RouteHandler handler);

  /// Requests served since construction (any status code).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  /// Returns false when the self-pipe fired (shutdown) mid-connection.
  bool HandleConnection(int fd);
  HttpResponse Route(const HttpRequest& request);

  HttpResponse HandleIndex() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleHealthz() const;
  HttpResponse HandleTracez() const;

  double UptimeSeconds() const;

  AdminServerOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_served_{0};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex probes_mu_;
  struct Probe {
    std::string name;
    std::function<bool()> fn;
  };
  std::vector<Probe> probes_;

  mutable std::mutex routes_mu_;
  struct RouteEntry {
    std::string method;
    std::string path;
    RouteHandler handler;
  };
  std::vector<RouteEntry> routes_;
};

}  // namespace supa::obs

#endif  // SUPA_OBS_ADMIN_SERVER_H_
