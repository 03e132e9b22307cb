#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "obs/json_parse.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/prometheus.h"
#include "obs/statusz.h"
#include "obs/trace.h"

namespace supa::obs {
namespace {

constexpr char kServerName[] = "supa-admin";

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

struct BuildInfo {
  const char* compiler = __VERSION__;
  const char* build_type =
#ifdef NDEBUG
      "Release";
#else
      "Debug";
#endif
};

/// Requested representation of a JSON page.
enum class PageFormat { kHtml, kJson, kBad };

/// Parses the `format=` query parameter. Absent (or `format=html`) means
/// HTML, `format=json` means JSON, and anything else is a client error —
/// unknown formats must 400, never silently fall back to HTML.
PageFormat ParseFormat(const std::string& query) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string param = query.substr(pos, end - pos);
    if (param.rfind("format=", 0) == 0) {
      const std::string value = param.substr(sizeof("format=") - 1);
      if (value == "json") return PageFormat::kJson;
      if (value == "html" || value.empty()) return PageFormat::kHtml;
      return PageFormat::kBad;
    }
    pos = end + 1;
  }
  return PageFormat::kHtml;
}

/// Case-insensitive Content-Length lookup in a raw request head. Returns
/// -1 when absent or malformed.
long ContentLengthOf(const std::string& head) {
  std::string lower;
  lower.reserve(head.size());
  for (char c : head) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  const size_t pos = lower.find("\r\ncontent-length:");
  if (pos == std::string::npos) return -1;
  const char* p = head.c_str() + pos + sizeof("\r\ncontent-length:") - 1;
  while (*p == ' ' || *p == '\t') ++p;
  char* end = nullptr;
  const long n = std::strtol(p, &end, 10);
  if (end == p || n < 0) return -1;
  return n;
}

/// GET /statusz: build info, uptime, the perf tier, the model alerts, every
/// StatusRegistry section, and histogram quantiles.
std::string StatuszJson(double uptime_seconds) {
  const BuildInfo build;
  const std::vector<StatusSection> sections =
      StatusRegistry::Global().Collect();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const PerfProfiler& profiler = PerfProfiler::Global();
  const ModelMonitorSnapshot model = ModelMonitor::Global().Snapshot();

  JsonWriter w;
  w.BeginObject();
  w.Field("server", std::string_view(kServerName));
  w.Field("uptime_seconds", uptime_seconds);
  w.Key("build").BeginObject();
  w.Field("compiler", std::string_view(build.compiler));
  w.Field("build_type", std::string_view(build.build_type));
  w.EndObject();
  w.Field("trace_dropped_events", TraceRecorder::Global().dropped_events());
  w.Key("perf").BeginObject();
  w.Field("source", std::string_view(PerfSourceName(profiler.source())));
  w.Field("enabled", profiler.enabled());
  w.EndObject();
  w.Key("model").BeginObject();
  w.Field("enabled", model.enabled);
  w.Field("alert_level", std::string_view(AlertLevelName(model.worst_level)));
  w.Key("alerts").BeginArray();
  for (const ModelAlert& alert : model.alerts) {
    w.BeginObject();
    w.Field("name", std::string_view(alert.name));
    w.Field("level", std::string_view(AlertLevelName(alert.level)));
    w.Field("detail", std::string_view(alert.detail));
    w.EndObject();
  }
  w.EndArray();
  w.Key("drifted_series").BeginArray();
  for (const ModelDriftState& d : model.drift) {
    if (d.drifted) w.String(d.name);
  }
  w.EndArray();
  w.EndObject();
  w.Key("sections").BeginArray();
  for (const StatusSection& section : sections) {
    w.BeginObject();
    w.Field("name", section.name);
    w.Key("items").BeginObject();
    for (const StatusItem& item : section.items) {
      w.Field(item.key, item.value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginArray();
  for (const auto& e : snapshot.entries) {
    if (e.kind != MetricKind::kHistogram) continue;
    w.BeginObject();
    w.Field("name", e.name);
    w.Field("count", e.count);
    w.Field("mean",
            e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count));
    w.Field("p50", e.Quantile(0.50));
    w.Field("p95", e.Quantile(0.95));
    w.Field("p99", e.Quantile(0.99));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

/// One page served as JSON with ?format=json and as HTML rendered from
/// that JSON by default. `build` returns the JSON document.
struct JsonPage {
  const char* path;
  const char* title;
  std::string (*build)(double uptime_seconds);
};

constexpr JsonPage kJsonPages[] = {
    {"/statusz", "Status", StatuszJson},
    {"/profilez", "Hardware profile",
     [](double) {
       return PerfReportJson(MetricsRegistry::Global().Snapshot());
     }},
    {"/modelz", "Model observability",
     [](double) { return ModelReportJson(ModelMonitor::Global().Snapshot()); }},
};

/// Decodes the UTF-8 sequence at the front of `s` (its first byte is at
/// least 0x80) and sets `*len` to the bytes it spans. A malformed, overlong
/// or surrogate sequence decodes to U+FFFD and spans one byte.
uint32_t DecodeUtf8(std::string_view s, size_t* len) {
  static constexpr uint32_t kMinCodePoint[] = {0, 0, 0x80, 0x800, 0x10000};
  const unsigned char lead = static_cast<unsigned char>(s[0]);
  // The lead byte's leading ones give the sequence length: 2 to 4.
  const size_t n = static_cast<size_t>(std::countl_one(lead));
  *len = 1;
  if (n < 2 || n > 4 || n > s.size()) return 0xFFFD;
  uint32_t cp = lead & (0x7Fu >> n);
  for (size_t k = 1; k < n; ++k) {
    const unsigned char c = static_cast<unsigned char>(s[k]);
    if ((c & 0xC0) != 0x80) return 0xFFFD;
    cp = (cp << 6) | (c & 0x3Fu);
  }
  if (cp < kMinCodePoint[n] || cp > 0x10FFFF ||
      (cp >= 0xD800 && cp <= 0xDFFF)) {
    return 0xFFFD;
  }
  *len = n;
  return cp;
}

/// Appends `s` as HTML text. The five markup characters become entities,
/// and every control or non-ASCII code point becomes a numeric character
/// reference, so the page is ASCII whatever bytes the JSON strings hold.
void AppendHtmlText(std::string_view s, std::string* out) {
  for (size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    size_t len = 1;
    switch (c) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"': *out += "&quot;"; break;
      case '\'': *out += "&#39;"; break;
      default:
        if (c >= 0x20 && c < 0x7F) {
          out->push_back(static_cast<char>(c));
        } else {
          const uint32_t cp = c < 0x80 ? c : DecodeUtf8(s.substr(i), &len);
          *out += "&#" + std::to_string(cp) + ";";
        }
    }
    i += len;
  }
}

/// Objects render as key/value tables, arrays as lists, numbers in their
/// shortest round-trip form.
void AppendHtmlValue(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kObject:
      *out += "<table>";
      for (const auto& [key, member] : value.object()) {
        *out += "<tr><th>";
        AppendHtmlText(key, out);
        *out += "</th><td>";
        AppendHtmlValue(member, out);
        *out += "</td></tr>";
      }
      *out += "</table>";
      break;
    case JsonValue::Type::kArray:
      *out += "<ul>";
      for (const JsonValue& element : value.array()) {
        *out += "<li>";
        AppendHtmlValue(element, out);
        *out += "</li>";
      }
      *out += "</ul>";
      break;
    case JsonValue::Type::kString:
      AppendHtmlText(value.string_value(), out);
      break;
    case JsonValue::Type::kNumber: {
      char buf[32];
      const auto result =
          std::to_chars(buf, buf + sizeof(buf), value.number_value());
      out->append(buf, result.ptr);
      break;
    }
    case JsonValue::Type::kBool:
      *out += value.bool_value() ? "true" : "false";
      break;
    case JsonValue::Type::kNull:
      *out += "null";
      break;
  }
}

/// The HTML view of one JSON page: a title, links to the index, every
/// page and this page's JSON, then the document.
std::string JsonToHtml(std::string_view title, const JsonValue& doc) {
  std::string html = "<!doctype html><html><head><title>";
  AppendHtmlText(title, &html);
  html +=
      "</title><style>body{font-family:monospace;margin:2em}"
      "table{border-collapse:collapse}"
      "th,td{border:1px solid #999;padding:2px 6px;text-align:left;"
      "vertical-align:top}th{background:#eee}ul{margin:0;padding-left:1em}"
      "</style></head><body><h1>";
  AppendHtmlText(title, &html);
  html += "</h1><p><a href=\"/\">/</a>";
  for (const JsonPage& page : kJsonPages) {
    html += std::string(" &middot; <a href=\"") + page.path + "\">" +
            page.path + "</a>";
  }
  html += " &middot; <a href=\"?format=json\">json</a></p>";
  AppendHtmlValue(doc, &html);
  html += "</body></html>\n";
  return html;
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "admin server already running";
    return false;
  }
  // Every failure below closes the listening socket, if it was opened.
  auto fail = [this, error](std::string why) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    if (error != nullptr) *error = std::move(why);
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail(Errno("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return fail(Errno("listen"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail(Errno("getsockname"));
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) return fail(Errno("pipe2"));

  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&AdminServer::Serve, this);
#if defined(__linux__)
  pthread_setname_np(thread_.native_handle(), kServerName);
#endif
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Self-pipe: wake the serve loop whether it is blocked in the accept
  // poll or mid-request in a connection poll.
  const char byte = 'q';
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  port_.store(0, std::memory_order_release);
}

void AdminServer::AddReadinessProbe(std::string name,
                                    std::function<bool()> probe) {
  std::lock_guard<std::mutex> lock(probes_mu_);
  probes_.push_back(Probe{std::move(name), std::move(probe)});
}

void AdminServer::AddRoute(std::string method, std::string path,
                           RouteHandler handler) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  routes_.push_back(RouteEntry{std::move(method), std::move(path),
                               std::move(handler)});
}

double AdminServer::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

void AdminServer::Serve() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;  // fatal poll error: stop serving rather than spin
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // Stop() requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const bool keep_going = HandleConnection(conn);
    ::close(conn);
    if (!keep_going) return;
  }
}

bool AdminServer::HandleConnection(int fd) {
  // Read until the end of the request head, the byte cap, the deadline,
  // or shutdown — whichever comes first. Bytes past the head terminator
  // (the start of a request body) stay in `raw`.
  std::string raw;
  size_t head_end = std::string::npos;
  while (head_end == std::string::npos &&
         raw.size() < options_.max_request_bytes) {
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, options_.io_timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return true;  // error or deadline: drop the connection
    if ((fds[1].revents & POLLIN) != 0) return false;  // shutting down
    char buf[2048];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return true;  // peer closed or reset
    raw.append(buf, static_cast<size_t>(n));
    head_end = raw.find("\r\n\r\n");
  }

  HttpResponse response;
  bool body_too_large = false;
  // A HEAD response carries the GET response's headers and no content
  // (RFC 9110 §9.3.2).
  bool head_only = false;
  if (head_end == std::string::npos) {
    response = HttpResponse{431, "text/plain; charset=utf-8",
                            "request head too large\n"};
  } else {
    const std::string head = raw.substr(0, head_end + 4);
    // Request line: METHOD SP request-target SP HTTP-version CRLF.
    const size_t line_end = head.find("\r\n");
    const std::string line = head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1) {
      response = HttpResponse{400, "text/plain; charset=utf-8",
                              "malformed request line\n"};
      MetricsRegistry::Global().GetCounter("admin.bad_requests").Increment();
    } else {
      HttpRequest request;
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t qmark = target.find('?');
      request.path = target.substr(0, qmark);
      if (qmark != std::string::npos) request.query = target.substr(qmark + 1);
      head_only = request.method == "HEAD";

      // Read the declared body (what wasn't already buffered past the
      // head), bounded by max_body_bytes.
      const long declared = ContentLengthOf(head);
      if (declared > 0) {
        if (static_cast<size_t>(declared) > options_.max_body_bytes) {
          body_too_large = true;
        } else {
          request.body = raw.substr(head_end + 4);
          while (request.body.size() < static_cast<size_t>(declared)) {
            pollfd fds[2];
            fds[0] = {fd, POLLIN, 0};
            fds[1] = {wake_pipe_[0], POLLIN, 0};
            const int rc = ::poll(fds, 2, options_.io_timeout_ms);
            if (rc < 0 && errno == EINTR) continue;
            if (rc <= 0) return true;
            if ((fds[1].revents & POLLIN) != 0) return false;
            char buf[2048];
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0) return true;
            request.body.append(buf, static_cast<size_t>(n));
          }
          request.body.resize(static_cast<size_t>(declared));
        }
      }
      response = body_too_large
                     ? HttpResponse{413, "text/plain; charset=utf-8",
                                    "request body too large\n"}
                     : Route(request);
    }
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().GetCounter("admin.requests").Increment();

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += response.body;

  size_t written = 0;
  while (written < out.size()) {
    pollfd fds[2];
    fds[0] = {fd, POLLOUT, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, options_.io_timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return true;
    if ((fds[1].revents & POLLIN) != 0) return false;
    const ssize_t n =
        ::write(fd, out.data() + written, out.size() - written);
    if (n <= 0) return true;
    written += static_cast<size_t>(n);
  }
  return true;
}

HttpResponse AdminServer::Route(const HttpRequest& request) {
  // Registered application routes first (last matching registration
  // wins); any method is allowed here.
  {
    RouteHandler handler;
    {
      std::lock_guard<std::mutex> lock(routes_mu_);
      for (auto it = routes_.rbegin(); it != routes_.rend(); ++it) {
        if (it->method == request.method && it->path == request.path) {
          handler = it->handler;
          break;
        }
      }
    }
    // Invoked outside routes_mu_ so a slow handler never blocks
    // AddRoute; a handler that throws maps to 500 (status pages and
    // serving must not take the process down).
    if (handler) {
      try {
        return handler(request);
      } catch (...) {
        return HttpResponse{500, "text/plain; charset=utf-8",
                            "handler error\n"};
      }
    }
  }
  if (request.method != "GET" && request.method != "HEAD") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET and HEAD are supported\n"};
  }
  if (request.path == "/") return HandleIndex();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/healthz") return HandleHealthz();
  if (request.path == "/tracez") return HandleTracez();
  for (const JsonPage& page : kJsonPages) {
    if (request.path != page.path) continue;
    const PageFormat format = ParseFormat(request.query);
    if (format == PageFormat::kBad) {
      MetricsRegistry::Global().GetCounter("admin.bad_requests").Increment();
      return HttpResponse{400, "text/plain; charset=utf-8",
                          "unknown format; use format=json or format=html\n"};
    }
    const std::string json = page.build(UptimeSeconds());
    if (format == PageFormat::kJson) {
      return HttpResponse{200, "application/json; charset=utf-8",
                          json + "\n"};
    }
    JsonValue doc;
    std::string error;
    if (!ParseJson(json, &doc, &error)) {
      return HttpResponse{500, "text/plain; charset=utf-8",
                          "page builder wrote invalid JSON: " + error + "\n"};
    }
    return HttpResponse{200, "text/html; charset=utf-8",
                        JsonToHtml(page.title, doc)};
  }
  return HttpResponse{404, "text/plain; charset=utf-8",
                      "not found; see / for the endpoints\n"};
}

HttpResponse AdminServer::HandleIndex() const {
  HttpResponse r;
  r.content_type = "text/html; charset=utf-8";
  r.body =
      "<!doctype html><title>supa admin</title><h1>supa admin</h1><ul>"
      "<li><a href=\"/metrics\">/metrics</a> &mdash; Prometheus "
      "exposition</li>"
      "<li><a href=\"/healthz\">/healthz</a> &mdash; liveness + "
      "readiness</li>"
      "<li><a href=\"/tracez\">/tracez</a> &mdash; Chrome trace dump</li>";
  for (const JsonPage& page : kJsonPages) {
    const std::string path = page.path;
    r.body += "<li><a href=\"" + path + "\">" + path + "</a> &mdash; " +
              page.title + " (<a href=\"" + path +
              "?format=json\">json</a>)</li>";
  }
  r.body += "</ul>\n";
  return r;
}

HttpResponse AdminServer::HandleMetrics() const {
  const BuildInfo build;
  HttpResponse r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  r.body = RenderPrometheusText(snapshot);
  AppendPrometheusSeries(
      "supa_build_info", "gauge", "build metadata (value is always 1)",
      {{"compiler", build.compiler}, {"build_type", build.build_type}}, 1.0,
      &r.body);
  AppendPrometheusSeries("supa_admin_uptime_seconds", "gauge",
                         "seconds since the admin server started (steady "
                         "clock)",
                         {}, UptimeSeconds(), &r.body);
  // Derived hardware-profile gauges (IPC, miss rates, cycles/edge); the
  // raw perf.* counters are already in the snapshot above.
  AppendPerfPrometheusSeries(snapshot, &r.body);
  // model_* series (sketch quantiles, drift flags, alert level) — emitted
  // even while the monitor is disabled so scrapers always see the schema.
  AppendModelPrometheusSeries(ModelMonitor::Global().Snapshot(), &r.body);
  return r;
}

HttpResponse AdminServer::HandleHealthz() const {
  std::vector<std::string> failing;
  {
    std::lock_guard<std::mutex> lock(probes_mu_);
    for (const Probe& probe : probes_) {
      bool healthy = false;
      try {
        healthy = probe.fn();
      } catch (...) {
        healthy = false;
      }
      if (!healthy) failing.push_back(probe.name);
    }
  }
  // A critical model alert (NaN/Inf gradient, exploding norm) vetoes
  // health with its reason; drift warnings do not (they surface on
  // /statusz and /modelz instead). Disabled monitors never veto.
  std::string model_reason;
  const bool model_veto =
      ModelMonitor::Global().HealthVeto(&model_reason);
  if (failing.empty() && !model_veto) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  std::string body;
  if (!failing.empty()) {
    body = "unready:";
    for (const std::string& name : failing) body += " " + name;
    body += "\n";
  }
  if (model_veto) body += "model alert: " + model_reason + "\n";
  return HttpResponse{503, "text/plain; charset=utf-8", std::move(body)};
}

HttpResponse AdminServer::HandleTracez() const {
  // ToJson snapshots the rings under the recorder mutex — the run keeps
  // going; at worst a concurrent writer overwrites the oldest events of
  // its own ring while we copy.
  return HttpResponse{200, "application/json; charset=utf-8",
                      TraceRecorder::Global().ToJson()};
}

}  // namespace supa::obs
