#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/prometheus.h"
#include "obs/statusz.h"

namespace supa::obs {
namespace {

struct HttpResult {
  bool ok = false;
  int status = 0;
  std::string head;
  std::string body;
};

/// Minimal loopback HTTP client: one blocking request/response exchange,
/// reading until the server closes (it always sends Connection: close).
HttpResult HttpGet(uint16_t port, const std::string& target,
                   const std::string& method = "GET") {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) {
    return result;
  }
  result.head = raw.substr(0, split);
  result.body = raw.substr(split + 4);
  result.status = std::atoi(raw.c_str() + 9);
  result.ok = true;
  return result;
}

class RunningServer {
 public:
  explicit RunningServer(AdminServerOptions options = AdminServerOptions{})
      : server_(std::move(options)) {
    std::string error;
    started_ = server_.Start(&error);
    EXPECT_TRUE(started_) << error;
  }
  ~RunningServer() { server_.Stop(); }

  AdminServer& operator*() { return server_; }
  AdminServer* operator->() { return &server_; }
  uint16_t port() const { return server_.port(); }
  bool started() const { return started_; }

 private:
  AdminServer server_;
  bool started_ = false;
};

TEST(PrometheusRenderTest, NameSanitization) {
  EXPECT_EQ(SanitizePrometheusName("inslearn.train_steps"),
            "inslearn_train_steps");
  EXPECT_EQ(SanitizePrometheusName("snapshot.take_ms"), "snapshot_take_ms");
  EXPECT_EQ(SanitizePrometheusName("weird-name with spaces"),
            "weird_name_with_spaces");
  EXPECT_EQ(SanitizePrometheusName("9lives"), "_9lives");
  EXPECT_EQ(SanitizePrometheusName(""), "_");
  EXPECT_EQ(SanitizePrometheusName("a:b_C9"), "a:b_C9");
}

TEST(PrometheusRenderTest, LabelValueEscaping) {
  EXPECT_EQ(EscapePrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabelValue("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  EXPECT_EQ(RenderPrometheusLabels({{"le", "+Inf"}, {"v", "x\"y"}}),
            "{le=\"+Inf\",v=\"x\\\"y\"}");
  EXPECT_EQ(RenderPrometheusLabels({}), "");
}

TEST(PrometheusRenderTest, ExpositionOfEveryKind) {
  // A hand-built snapshot keeps the expectation exact — no global-registry
  // cross-talk from other tests.
  MetricsSnapshot snapshot;
  MetricsSnapshot::Entry counter;
  counter.name = "train.steps";
  counter.kind = MetricKind::kCounter;
  counter.counter = 42;
  MetricsSnapshot::Entry duration;
  duration.name = "train.time_ns";
  duration.kind = MetricKind::kCounter;
  duration.counter = 2'500'000'000;  // 2.5 s
  MetricsSnapshot::Entry gauge;
  gauge.name = "queue.depth";
  gauge.kind = MetricKind::kGauge;
  gauge.gauge = 7.5;
  MetricsSnapshot::Entry hist;
  hist.name = "batch.wait_us";
  hist.kind = MetricKind::kHistogram;
  hist.bounds = {1.0, 2.0};
  hist.buckets = {1, 1, 1};  // one observation per bucket incl. overflow
  hist.count = 3;
  hist.sum = 7.0;
  snapshot.entries = {counter, duration, gauge, hist};

  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE train_steps_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("train_steps_total 42\n"), std::string::npos);
  // _ns counters export as seconds in the base unit.
  EXPECT_NE(text.find("train_time_seconds_total 2.5\n"), std::string::npos);
  EXPECT_EQ(text.find("train_time_ns"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 7.5\n"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf.
  EXPECT_NE(text.find("batch_wait_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("batch_wait_us_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("batch_wait_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("batch_wait_us_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("batch_wait_us_count 3\n"), std::string::npos);
}

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  MetricsSnapshot::Entry e;
  e.kind = MetricKind::kHistogram;
  e.bounds = {10.0, 20.0, 40.0};
  e.buckets = {2, 2, 0, 1};  // overflow last
  e.count = 5;
  // p50: rank 2.5 lands in (10, 20] at position 0.25.
  EXPECT_DOUBLE_EQ(e.Quantile(0.50), 12.5);
  // p0 maps to the first observation: rank 1 of 2 in [0, 10].
  EXPECT_DOUBLE_EQ(e.Quantile(0.0), 5.0);
  // p99 lands in the overflow bucket: clamped to the last finite bound.
  EXPECT_DOUBLE_EQ(e.Quantile(0.99), 40.0);
  MetricsSnapshot::Entry empty;
  empty.kind = MetricKind::kHistogram;
  empty.bounds = {1.0};
  empty.buckets = {0, 0};
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  MetricsSnapshot::Entry not_hist;
  not_hist.kind = MetricKind::kCounter;
  EXPECT_DOUBLE_EQ(not_hist.Quantile(0.5), 0.0);
}

TEST(AdminServerTest, EphemeralPortBindServeStopRestart) {
  AdminServer server;
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const uint16_t first_port = server.port();
  EXPECT_NE(first_port, 0);
  EXPECT_TRUE(server.running());
  EXPECT_FALSE(server.Start(&error));  // double-start refused

  HttpResult index = HttpGet(first_port, "/");
  ASSERT_TRUE(index.ok);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // idempotent

  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_NE(server.port(), 0);
  HttpResult again = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.status, 200);
  server.Stop();
}

TEST(AdminServerTest, MetricsEndpointIsConformant) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("admin_test.events").Increment(3);
  registry.GetCounter("admin_test.busy_ns").Increment(1'500'000'000);
  registry.GetGauge("admin_test.temperature").Set(21.5);
  Histogram hist =
      registry.GetHistogram("admin_test.latency_us", {10.0, 100.0});
  hist.Observe(5.0);
  hist.Observe(50.0);
  hist.Observe(500.0);

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
            std::string::npos);

  const std::string& body = metrics.body;
  EXPECT_NE(body.find("admin_test_events_total 3"), std::string::npos);
  EXPECT_NE(body.find("admin_test_busy_seconds_total 1.5"),
            std::string::npos);
  EXPECT_NE(body.find("admin_test_temperature 21.5"), std::string::npos);
  EXPECT_NE(body.find("admin_test_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(body.find("admin_test_latency_us_sum"), std::string::npos);
  EXPECT_NE(body.find("admin_test_latency_us_count 3"), std::string::npos);
  EXPECT_NE(body.find("supa_build_info{compiler="), std::string::npos);
  EXPECT_NE(body.find("supa_admin_uptime_seconds"), std::string::npos);

  // promtool-style line check: every line is a comment or
  // `name{labels} value`.
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$)");
  size_t samples = 0;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.rfind("# ", 0) == 0) continue;
    EXPECT_TRUE(std::regex_match(line, sample_line)) << line;
    ++samples;
  }
  EXPECT_GE(samples, 8u);
}

TEST(AdminServerTest, HealthzFlipsWithReadinessProbes) {
  std::atomic<bool> ready{false};
  RunningServer server;
  ASSERT_TRUE(server.started());
  server->AddReadinessProbe("warmup", [&] { return ready.load(); });
  server->AddReadinessProbe("always", [] { return true; });

  HttpResult unready = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(unready.ok);
  EXPECT_EQ(unready.status, 503);
  EXPECT_NE(unready.body.find("unready: warmup"), std::string::npos);
  EXPECT_EQ(unready.body.find("always"), std::string::npos);

  ready.store(true);
  HttpResult ok = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");
}

TEST(AdminServerTest, ThrowingProbeReportsUnready) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  server->AddReadinessProbe("explosive",
                            []() -> bool { throw std::runtime_error("no"); });
  HttpResult r = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("explosive"), std::string::npos);
}

TEST(AdminServerTest, StatuszServesHtmlAndJson) {
  std::atomic<uint64_t> edges{12345};
  StatusScope scope("inslearn <progress>", [&] {
    return std::vector<StatusItem>{
        {"edges_trained", std::to_string(edges.load())},
        {"phase", "train \"quoted\""}};
  });

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult html = HttpGet(server.port(), "/statusz");
  ASSERT_TRUE(html.ok);
  EXPECT_EQ(html.status, 200);
  EXPECT_NE(html.head.find("text/html"), std::string::npos);
  // Section names are HTML-escaped, values rendered.
  EXPECT_NE(html.body.find("inslearn &lt;progress&gt;"), std::string::npos);
  EXPECT_NE(html.body.find("edges_trained"), std::string::npos);
  EXPECT_NE(html.body.find("12345"), std::string::npos);

  HttpResult json = HttpGet(server.port(), "/statusz?format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.head.find("application/json"), std::string::npos);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json.body, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("server")->string_value(), "supa-admin");
  ASSERT_TRUE(doc.Find("uptime_seconds")->is_number());
  EXPECT_GE(doc.Find("uptime_seconds")->number_value(), 0.0);
  ASSERT_NE(doc.Find("build")->Find("build_type"), nullptr);
  const JsonValue* sections = doc.Find("sections");
  ASSERT_NE(sections, nullptr);
  bool found = false;
  for (const JsonValue& section : sections->array()) {
    if (section.Find("name")->string_value() != "inslearn <progress>") {
      continue;
    }
    found = true;
    EXPECT_EQ(
        section.Find("items")->Find("edges_trained")->string_value(),
        "12345");
  }
  EXPECT_TRUE(found);
  ASSERT_NE(doc.Find("histograms"), nullptr);
}

// The HTML view is rendered from the JSON document, so a string reaches
// the page only through the renderer's escaping: markup characters become
// entities, and control and non-ASCII characters numeric references (a
// byte that is not UTF-8 becomes U+FFFD).
TEST(AdminServerTest, StatuszHtmlEscapesEveryString) {
  const std::string hostile =
      "<script>alert(1)</script> & \" ' \n \xC3\xA9 \xF0\x9F\x98\x80 \xFF";
  StatusScope scope(hostile, [&] {
    return std::vector<StatusItem>{{"key " + hostile, "value " + hostile}};
  });

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult html = HttpGet(server.port(), "/statusz");
  ASSERT_TRUE(html.ok);
  EXPECT_EQ(html.status, 200);
  const std::string escaped =
      "&lt;script&gt;alert(1)&lt;/script&gt; &amp; &quot; &#39; &#10; "
      "&#233; &#128512; &#65533;";
  EXPECT_NE(html.body.find("<td>" + escaped + "</td>"), std::string::npos)
      << html.body;
  EXPECT_NE(html.body.find("<th>key " + escaped + "</th>"),
            std::string::npos);
  EXPECT_NE(html.body.find("<td>value " + escaped + "</td>"),
            std::string::npos);
  EXPECT_EQ(html.body.find("<script"), std::string::npos);
  EXPECT_EQ(html.body.find("\xC3\xA9"), std::string::npos);
  // The page is ASCII, and its only raw newline ends it.
  EXPECT_EQ(html.body.find('\n'), html.body.size() - 1);
  for (char c : html.body) {
    EXPECT_LT(static_cast<unsigned char>(c), 0x80);
  }
}

// RFC 9110 §9.3.2: a HEAD response carries GET's headers and no content.
TEST(AdminServerTest, HeadSendsHeadersOnly) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  for (const char* target : {"/", "/healthz", "/statusz",
                             "/modelz?format=json", "/nope"}) {
    HttpResult get = HttpGet(server.port(), target);
    HttpResult head = HttpGet(server.port(), target, "HEAD");
    ASSERT_TRUE(get.ok) << target;
    ASSERT_TRUE(head.ok) << target;
    EXPECT_EQ(head.status, get.status) << target;
    EXPECT_TRUE(head.body.empty()) << target << ": " << head.body;
    EXPECT_FALSE(get.body.empty()) << target;
    const std::regex content_type("Content-Type: [^\r]*");
    std::smatch get_type;
    std::smatch head_type;
    ASSERT_TRUE(std::regex_search(get.head, get_type, content_type));
    ASSERT_TRUE(std::regex_search(head.head, head_type, content_type));
    EXPECT_EQ(head_type.str(), get_type.str()) << target;
  }
  // The index is the same bytes on every request, so its HEAD announces
  // exactly the length GET sends.
  HttpResult get = HttpGet(server.port(), "/");
  HttpResult head = HttpGet(server.port(), "/", "HEAD");
  const std::string length =
      "Content-Length: " + std::to_string(get.body.size());
  EXPECT_NE(get.head.find(length), std::string::npos) << get.head;
  EXPECT_NE(head.head.find(length), std::string::npos) << head.head;
}

TEST(AdminServerTest, ProfilezServesHtmlAndJson) {
  // A recorded scope so the report has at least one domain row.
  PerfProfiler::Global().Enable(true);
  {
    SUPA_PHASE(kServeScore);
    volatile uint64_t acc = 1;
    for (int i = 0; i < 10000; ++i) acc = acc * 33 + 7;
  }
  PerfProfiler::Global().Enable(false);

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult html = HttpGet(server.port(), "/profilez");
  ASSERT_TRUE(html.ok);
  EXPECT_EQ(html.status, 200);
  EXPECT_NE(html.head.find("text/html"), std::string::npos);
  EXPECT_NE(html.body.find("<title>Hardware profile</title>"),
            std::string::npos);
  EXPECT_NE(html.body.find("<a href=\"?format=json\">"), std::string::npos);
  EXPECT_NE(html.body.find("<th>serve_score</th>"), std::string::npos);

  HttpResult json = HttpGet(server.port(), "/profilez?format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.head.find("application/json"), std::string::npos);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json.body, &doc, &error)) << error;
  // Any rung of the degradation ladder is fine; "disabled" would mean the
  // Enable above never took effect.
  const std::string source = doc.Find("source")->string_value();
  EXPECT_TRUE(source == "hardware" || source == "software" ||
              source == "rusage")
      << source;
  const JsonValue* serve_score = doc.Find("domains")->Find("serve_score");
  ASSERT_NE(serve_score, nullptr);
  ASSERT_NE(serve_score->Find("scopes"), nullptr);

  // /metrics carries the derived perf gauges and the tier info series.
  HttpResult metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("supa_perf_source"), std::string::npos);
  EXPECT_NE(metrics.body.find("perf_serve_score_ipc"), std::string::npos);

  // /statusz surfaces the tier and the trace-drop counter.
  HttpResult statusz = HttpGet(server.port(), "/statusz?format=json");
  ASSERT_TRUE(statusz.ok);
  JsonValue status_doc;
  ASSERT_TRUE(ParseJson(statusz.body, &status_doc, &error)) << error;
  ASSERT_NE(status_doc.Find("perf")->Find("source"), nullptr);
  ASSERT_NE(status_doc.Find("trace_dropped_events"), nullptr);
}

// The perf report's HTML view is one page that loads nothing else: its
// style is inline, it names itself, and it links to its own JSON form.
TEST(PerfReportTest, HtmlIsSelfContained) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult html = HttpGet(server.port(), "/profilez");
  ASSERT_TRUE(html.ok);
  EXPECT_EQ(html.status, 200);
  EXPECT_NE(html.body.find("<title>Hardware profile</title>"),
            std::string::npos);
  EXPECT_NE(html.body.find("<a href=\"/profilez\">"), std::string::npos);
  EXPECT_NE(html.body.find("<a href=\"?format=json\">"), std::string::npos);
  EXPECT_NE(html.body.find("<style>"), std::string::npos);
  for (const char* external : {"src=", "<link", "http://", "https://"}) {
    EXPECT_EQ(html.body.find(external), std::string::npos) << external;
  }
}

TEST(AdminServerTest, TracezReturnsValidChromeTraceJson) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult trace = HttpGet(server.port(), "/tracez");
  ASSERT_TRUE(trace.ok);
  EXPECT_EQ(trace.status, 200);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(trace.body, &doc, &error)) << error;
  EXPECT_NE(doc.Find("traceEvents"), nullptr);
}

TEST(AdminServerTest, RejectsUnknownPathsAndMethods) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult missing = HttpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);
  HttpResult post = HttpGet(server.port(), "/metrics", "POST");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);
  const uint64_t served = server->requests_served();
  EXPECT_GE(served, 2u);
}

TEST(AdminServerTest, OversizedRequestHeadGets431) {
  AdminServerOptions options;
  options.max_request_bytes = 128;
  RunningServer server(options);
  ASSERT_TRUE(server.started());
  // A terminator never arrives, so the server must give up at the byte cap
  // rather than buffer without bound.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string unterminated = "GET /" + std::string(512, 'x');
  ASSERT_GT(::write(fd, unterminated.data(), unterminated.size()), 0);
  std::string raw;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 431", 0), 0u) << raw;
}

TEST(AdminServerTest, StopInterruptsInFlightRequest) {
  AdminServerOptions options;
  options.io_timeout_ms = 60'000;  // force Stop() to do the interrupting
  AdminServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Open a connection and send only a partial request head, so the serve
  // thread is parked in the connection poll when Stop() fires.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /metr";
  ASSERT_GT(::write(fd, partial, sizeof(partial) - 1), 0);
  // Give the serve loop a moment to accept and block on the read poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto before = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_LT(stop_seconds, 5.0);  // did not wait out the 60 s io timeout

  char buf[16];
  EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);  // connection was torn down
  ::close(fd);
}

TEST(AdminServerTest, ScrapingDuringTrainingIsBitIdentical) {
  // Train the same tiny workload twice — once plain, once while a client
  // hammers every endpoint — and require bit-identical parameters. This is
  // the "observation does not perturb the experiment" guarantee.
  const auto train_once = [](bool with_scraper) {
    Dataset data = MakeTaobao(0.15, 41).value();
    SupaConfig model_config;
    model_config.dim = 16;
    model_config.num_walks = 2;
    model_config.walk_len = 3;
    model_config.num_neg = 3;
    model_config.seed = 5;
    InsLearnConfig train_config;
    train_config.batch_size = 256;
    train_config.max_iters = 4;
    train_config.valid_interval = 2;
    train_config.valid_size = 50;
    train_config.patience = 2;
    train_config.valid_negatives = 30;
    SupaModel model(data, model_config);
    InsLearnTrainer trainer(train_config);

    AdminServer server;
    std::atomic<bool> scraping{with_scraper};
    std::thread scraper;
    if (with_scraper) {
      std::string error;
      EXPECT_TRUE(server.Start(&error)) << error;
      scraper = std::thread([&server, &scraping] {
        const char* targets[] = {"/metrics", "/statusz?format=json",
                                 "/healthz", "/tracez"};
        size_t i = 0;
        while (scraping.load()) {
          HttpGet(server.port(), targets[i++ % 4]);
        }
      });
    }
    const size_t n = std::min<size_t>(1024, data.edges.size());
    auto report = trainer.Train(model, data, EdgeRange{0, n});
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    scraping.store(false);
    if (scraper.joinable()) scraper.join();
    server.Stop();
    return model.TakeSnapshot().params;
  };

  const std::vector<float> plain = train_once(false);
  const std::vector<float> scraped = train_once(true);
  ASSERT_EQ(plain.size(), scraped.size());
  EXPECT_EQ(plain, scraped);
}

/// Restores the global model monitor to its disabled, empty state when a
/// test exits, so monitor-using tests cannot leak alerts into each other.
class ScopedModelMonitor {
 public:
  ScopedModelMonitor() {
    ModelMonitor::Global().Configure(ModelMonitorOptions{});
    ModelMonitor::Global().Enable(true);
  }
  ~ScopedModelMonitor() {
    ModelMonitor::Global().Enable(false);
    ModelMonitor::Global().Configure(ModelMonitorOptions{});
  }
};

TEST(AdminServerTest, ModelzServesHtmlAndJson) {
  ScopedModelMonitor monitor;
  for (int i = 0; i < 32; ++i) {
    ModelMonitor::Global().RecordTrainStep(
        /*loss_inter=*/0.6, /*loss_prop=*/0.2, /*loss_neg=*/0.1,
        /*grad_norm=*/1.5, /*step_norm=*/0.02,
        /*row_norm_before=*/10.0, /*row_norm_after=*/10.01);
  }

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult html = HttpGet(server.port(), "/modelz");
  ASSERT_TRUE(html.ok);
  EXPECT_EQ(html.status, 200);
  EXPECT_NE(html.head.find("text/html"), std::string::npos);
  EXPECT_NE(html.body.find("Model observability"), std::string::npos);
  EXPECT_NE(html.body.find("train_loss"), std::string::npos);

  HttpResult json = HttpGet(server.port(), "/modelz?format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.head.find("application/json"), std::string::npos);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json.body, &doc, &error)) << error;
  EXPECT_TRUE(doc.Find("enabled")->bool_value());
  EXPECT_EQ(doc.Find("train_steps")->number_value(), 32.0);
  const JsonValue* loss = doc.Find("sketches")->Find("train_loss");
  ASSERT_NE(loss, nullptr);
  EXPECT_EQ(loss->Find("count")->number_value(), 32.0);
  // Every sketched quantile of a constant loss stream is the loss itself
  // (within the sketch's relative-error bound).
  EXPECT_NEAR(loss->Find("p50")->number_value(), 0.9, 0.9 * 0.01);
  ASSERT_NE(doc.Find("drift"), nullptr);
  ASSERT_NE(doc.Find("stream")->Find("distinct_users"), nullptr);

  // The model_* series ride along on /metrics even when nothing has been
  // recorded — CI scrapes depend on their presence unconditionally.
  HttpResult metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("model_monitor_enabled"), std::string::npos);
  EXPECT_NE(metrics.body.find("model_alert_level"), std::string::npos);
  EXPECT_NE(
      metrics.body.find("model_train_loss{quantile=\"0.5\"}"),
      std::string::npos);
}

TEST(AdminServerTest, UnknownFormatValuesAreRejectedWith400) {
  RunningServer server;
  ASSERT_TRUE(server.started());
  for (const char* target :
       {"/statusz?format=xml", "/profilez?format=yaml",
        "/modelz?format=HTML", "/statusz?x=1&format=nope"}) {
    HttpResult r = HttpGet(server.port(), target);
    ASSERT_TRUE(r.ok) << target;
    EXPECT_EQ(r.status, 400) << target;
    EXPECT_NE(r.body.find("unknown format"), std::string::npos) << target;
  }
  // format=html and an explicit format=json keep working on all three.
  for (const char* target :
       {"/statusz?format=html", "/profilez?format=html",
        "/modelz?format=html", "/modelz?format=json"}) {
    HttpResult r = HttpGet(server.port(), target);
    ASSERT_TRUE(r.ok) << target;
    EXPECT_EQ(r.status, 200) << target;
  }
}

TEST(AdminServerTest, CriticalModelAlertVetoesHealthz) {
  ScopedModelMonitor monitor;
  RunningServer server;
  ASSERT_TRUE(server.started());

  HttpResult healthy = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(healthy.ok);
  EXPECT_EQ(healthy.status, 200);

  // One NaN gradient is a critical alert and must flip health to 503
  // with the reason in the body.
  ModelMonitor::Global().RecordTrainStep(
      0.5, 0.2, 0.1, std::numeric_limits<double>::quiet_NaN(), 0.01, 1.0,
      1.0);
  HttpResult vetoed = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(vetoed.ok);
  EXPECT_EQ(vetoed.status, 503);
  EXPECT_NE(vetoed.body.find("model alert:"), std::string::npos);
  EXPECT_NE(vetoed.body.find("grad_norm"), std::string::npos);

  // A disabled monitor never vetoes, even with the alert still latched.
  ModelMonitor::Global().Enable(false);
  HttpResult disabled = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(disabled.ok);
  EXPECT_EQ(disabled.status, 200);
}

TEST(AdminServerTest, ModelAlertsSurfaceOnStatusz) {
  ScopedModelMonitor monitor;
  // Shrink the drift windows so a mean shift latches quickly: feed a
  // stable loss, then a 5x step change.
  ModelMonitorOptions options;
  options.window_edges = 16;
  options.drift.warmup_windows = 4;
  options.drift.consecutive_required = 2;
  ModelMonitor::Global().Configure(options);
  auto feed = [](double loss, int steps) {
    for (int i = 0; i < steps; ++i) {
      ModelMonitor::Global().RecordTrainStep(loss, 0.0, 0.0, 1.0, 0.01,
                                             1.0, 1.0);
    }
  };
  feed(0.8, 16 * 12);
  feed(4.0, 16 * 6);
  ASSERT_EQ(ModelMonitor::Global().worst_level(), AlertLevel::kWarn);

  RunningServer server;
  ASSERT_TRUE(server.started());
  HttpResult json = HttpGet(server.port(), "/statusz?format=json");
  ASSERT_TRUE(json.ok);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json.body, &doc, &error)) << error;
  const JsonValue* model = doc.Find("model");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->Find("alert_level")->string_value(), "warn");
  const JsonValue* drifted = model->Find("drifted_series");
  ASSERT_NE(drifted, nullptr);
  bool found = false;
  for (const JsonValue& name : drifted->array()) {
    if (name.string_value() == "train_loss") found = true;
  }
  EXPECT_TRUE(found);

  HttpResult html = HttpGet(server.port(), "/statusz");
  ASSERT_TRUE(html.ok);
  EXPECT_NE(html.body.find("<th>alert_level</th><td>warn</td>"),
            std::string::npos);
  EXPECT_NE(html.body.find("<li>train_loss</li>"), std::string::npos);
  EXPECT_NE(html.body.find("<a href=\"/modelz\">"), std::string::npos);

  // Drift is a warning, not a health veto.
  HttpResult health = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
}

TEST(AdminServerTest, TrainingIsBitIdenticalWithModelMonitorOn) {
  // The monitor only reads already-computed values, so enabling it must
  // not change a single parameter bit — same guarantee the scraper test
  // pins for the admin endpoints.
  const auto train_once = [](bool with_monitor) {
    if (with_monitor) {
      ModelMonitor::Global().Configure(ModelMonitorOptions{});
      ModelMonitor::Global().Enable(true);
    }
    Dataset data = MakeTaobao(0.15, 41).value();
    SupaConfig model_config;
    model_config.dim = 16;
    model_config.num_walks = 2;
    model_config.walk_len = 3;
    model_config.num_neg = 3;
    model_config.seed = 5;
    InsLearnConfig train_config;
    train_config.batch_size = 256;
    train_config.max_iters = 4;
    train_config.valid_interval = 2;
    train_config.valid_size = 50;
    train_config.patience = 2;
    train_config.valid_negatives = 30;
    SupaModel model(data, model_config);
    InsLearnTrainer trainer(train_config);
    const size_t n = std::min<size_t>(1024, data.edges.size());
    auto report = trainer.Train(model, data, EdgeRange{0, n});
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (with_monitor) {
      // Instrumented paths must actually have fed the monitor.
      EXPECT_GT(ModelMonitor::Global().Snapshot().train_steps, 0u);
      ModelMonitor::Global().Enable(false);
      ModelMonitor::Global().Configure(ModelMonitorOptions{});
    }
    return model.TakeSnapshot().params;
  };

  const std::vector<float> plain = train_once(false);
  const std::vector<float> monitored = train_once(true);
  ASSERT_EQ(plain.size(), monitored.size());
  EXPECT_EQ(plain, monitored);
}

}  // namespace
}  // namespace supa::obs
