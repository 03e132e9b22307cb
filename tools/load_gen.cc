// load_gen — load harness for the serving layer.
//
// Drives POST /recommend (HTTP mode) or a ServeEngine linked in-process
// with Zipf-skewed user popularity, and reports tail latency + throughput
// as a BENCH_serve.json.
//
//   # HTTP, closed loop: 8 clients hammering a live supa_cli --serve run
//   load_gen --target http://127.0.0.1:8080 --mode closed
//            --concurrency 8 --duration-s 5 --repeats 3
//            --json-out BENCH_serve.json
//
//   # in-process, open loop at 2000 req/s over a checkpoint
//   load_gen --dataset taobao --checkpoint model.bin
//            --mode open --qps 2000 --duration-s 5
//
// Modes:
//   closed  `--concurrency` workers each keep exactly one request in
//           flight; latency is the service time a saturated client sees.
//   open    requests arrive on a fixed schedule (`--qps`), independent of
//           completions; latency is measured from the *scheduled* arrival,
//           so a stalled server accrues queueing delay instead of being
//           silently forgiven (coordinated omission).
//
// User popularity is Zipf(θ) over the dataset's query-type nodes
// (util/zipf.h FastZipf, θ = 0.99 by default — the classic YCSB skew).
// Worker w draws from an Rng seeded SplitMix64At(seed, w), so the offered
// load is reproducible bit-for-bit at any concurrency.
//
// Latency quantiles come from per-worker obs::QuantileSketch (DDSketch)
// merged per repeat: p50/p95/p99 are within 1% relative error, mean and
// max are exact. The report lists them per repeat under "repeats_detail".
//
// Exit status: 0 when every repeat completed and at least `--min-requests`
// requests succeeded (CI's serving-smoke gate), 1 otherwise.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/splits.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "obs/json_writer.h"
#include "obs/sketch.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/tsv.h"
#include "util/zipf.h"

namespace supa {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    auto v = ParseDouble(it->second);
    return v.ok() ? v.value() : fallback;
  }
  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    auto v = ParseUint(it->second);
    return v.ok() ? v.value() : fallback;
  }
};

/// One request sender. Implementations must be safe to call from many
/// worker threads at once.
class Client {
 public:
  virtual ~Client() = default;
  /// Sends one recommendation request; true on success (HTTP 200 / OK).
  virtual bool Send(NodeId user, EdgeTypeId relation, size_t k) = 0;
  /// Largest staleness_edges observed in a response (0 when the client
  /// does not see response bodies).
  virtual uint64_t max_staleness() const { return 0; }
};

// ---------------------------------------------------------------------------
// HTTP client: one POST /recommend per connection (the admin server is
// Connection: close), raw POSIX sockets, no third-party dependencies.

class HttpClient : public Client {
 public:
  HttpClient(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  bool Send(NodeId user, EdgeTypeId relation, size_t k) override {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    char body[96];
    const int body_len =
        std::snprintf(body, sizeof(body), "{\"user\":%u,\"relation\":%u,\"k\":%zu}",
                      user, static_cast<unsigned>(relation), k);
    char head[256];
    const int head_len = std::snprintf(
        head, sizeof(head),
        "POST /recommend HTTP/1.1\r\nHost: %s\r\nContent-Type: "
        "application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
        host_.c_str(), body_len);
    bool ok = WriteAll(fd, head, static_cast<size_t>(head_len)) &&
              WriteAll(fd, body, static_cast<size_t>(body_len));
    int status = 0;
    if (ok) status = ReadStatus(fd);
    ::close(fd);
    return ok && status == 200;
  }

 private:
  static bool WriteAll(int fd, const char* data, size_t len) {
    size_t sent = 0;
    while (sent < len) {
      const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Drains the response (peer closes) and returns the status-line code.
  static int ReadStatus(int fd) {
    std::string response;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
      if (response.size() > (1u << 20)) break;  // runaway response
    }
    // "HTTP/1.1 200 OK"
    const size_t space = response.find(' ');
    if (space == std::string::npos || space + 4 > response.size()) return 0;
    return std::atoi(response.c_str() + space + 1);
  }

  std::string host_;
  uint16_t port_;
};

// ---------------------------------------------------------------------------
// In-process client over a ServeEngine (no network, measures the engine).

class InprocClient : public Client {
 public:
  explicit InprocClient(serve::ServeEngine* engine) : engine_(engine) {}

  bool Send(NodeId user, EdgeTypeId relation, size_t k) override {
    serve::RecommendRequest req;
    req.user = user;
    req.relation = relation;
    req.k = k;
    serve::RecommendResponse resp;
    if (!engine_->Recommend(req, &resp).ok()) return false;
    uint64_t seen = max_staleness_.load(std::memory_order_relaxed);
    while (resp.staleness_edges > seen &&
           !max_staleness_.compare_exchange_weak(seen, resp.staleness_edges,
                                                 std::memory_order_relaxed)) {
    }
    return true;
  }

  uint64_t max_staleness() const override {
    return max_staleness_.load(std::memory_order_relaxed);
  }

 private:
  serve::ServeEngine* engine_;
  std::atomic<uint64_t> max_staleness_{0};
};

// ---------------------------------------------------------------------------
// Load loops.

struct LoadPlan {
  bool open_loop = false;
  size_t concurrency = 4;
  double qps = 1000.0;  // open loop only
  double duration_s = 5.0;
  double theta = 0.99;
  size_t k = 10;
  EdgeTypeId relation = 0;
  uint64_t seed = 1;
};

struct WorkerResult {
  obs::QuantileSketch latencies_us;
  uint64_t errors = 0;
};

/// One load repeat, summarized.
struct RepeatSummary {
  uint64_t requests = 0;  // completed successfully
  uint64_t errors = 0;    // rejected or failed
  double duration_s = 0.0;
  double qps = 0.0;  // requests / duration_s
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

/// Runs one repeat of the plan against `client` and summarizes the merged
/// worker latencies over the true wall duration (the QPS denominator).
RepeatSummary RunRepeat(Client* client, const LoadPlan& plan,
                        const std::vector<NodeId>& users,
                        uint64_t repeat_index, bool record) {
  const FastZipf zipf(users.size(), plan.theta);
  std::vector<WorkerResult> results(plan.concurrency);
  std::vector<std::thread> threads;
  threads.reserve(plan.concurrency);

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.duration_s));
  std::atomic<uint64_t> arrivals{0};  // open loop: next arrival index

  for (size_t w = 0; w < plan.concurrency; ++w) {
    threads.emplace_back([&, w] {
      // Seed differs per worker *and* per repeat so repeats are
      // independent draws from the same popularity law.
      Rng rng(SplitMix64At(plan.seed, repeat_index * 1000003 + w));
      WorkerResult& out = results[w];
      while (true) {
        Clock::time_point issued;
        if (plan.open_loop) {
          const uint64_t i = arrivals.fetch_add(1, std::memory_order_relaxed);
          issued = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / plan.qps));
          if (issued >= deadline) return;
          std::this_thread::sleep_until(issued);
        } else {
          issued = Clock::now();
          if (issued >= deadline) return;
        }
        const NodeId user = users[zipf.Sample(rng)];
        const bool ok = client->Send(user, plan.relation, plan.k);
        if (!record) continue;
        if (ok) {
          // Open loop measures from the scheduled arrival, closed loop
          // from issue time — both end at completion.
          out.latencies_us.Add(
              std::chrono::duration<double, std::micro>(Clock::now() - issued)
                  .count());
        } else {
          ++out.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  obs::QuantileSketch merged;
  RepeatSummary out;
  for (const WorkerResult& r : results) {
    merged.Merge(r.latencies_us);
    out.errors += r.errors;
  }
  out.requests = merged.count();
  out.duration_s = wall_s;
  out.qps = wall_s > 0.0 ? static_cast<double>(out.requests) / wall_s : 0.0;
  out.p50_us = merged.Quantile(0.50);
  out.p95_us = merged.Quantile(0.95);
  out.p99_us = merged.Quantile(0.99);
  out.mean_us = merged.Mean();
  out.max_us = merged.max();
  return out;
}

/// The BENCH_serve.json document: `config` writes the run's settings,
/// then come the totals and each repeat's detail.
std::string ReportJson(const std::string& mode,
                       const std::function<void(obs::JsonWriter*)>& config,
                       const std::vector<RepeatSummary>& repeats) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("benchmark", std::string_view("serve_load"));
  w.Field("mode", std::string_view(mode));
  w.Field("repeats", static_cast<uint64_t>(repeats.size()));
  w.Key("config").BeginObject();
  config(&w);
  w.EndObject();

  uint64_t total_requests = 0;
  uint64_t total_errors = 0;
  for (const RepeatSummary& r : repeats) {
    total_requests += r.requests;
    total_errors += r.errors;
  }
  w.Key("totals").BeginObject();
  w.Field("requests", total_requests);
  w.Field("errors", total_errors);
  w.EndObject();

  w.Key("repeats_detail").BeginArray();
  for (const RepeatSummary& r : repeats) {
    w.BeginObject();
    w.Field("requests", r.requests);
    w.Field("errors", r.errors);
    w.Field("duration_s", r.duration_s);
    w.Field("qps", r.qps);
    w.Field("p50_us", r.p50_us);
    w.Field("p95_us", r.p95_us);
    w.Field("p99_us", r.p99_us);
    w.Field("mean_us", r.mean_us);
    w.Field("max_us", r.max_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(
      stderr,
      "usage: load_gen (--target http://127.0.0.1:PORT | --dataset D "
      "--checkpoint C) [options]\n"
      "  --mode open|closed     arrival model (default closed)\n"
      "  --concurrency N        client threads (default 4)\n"
      "  --qps Q                open-loop arrival rate (default 1000)\n"
      "  --duration-s S         measured seconds per repeat (default 5)\n"
      "  --warmup-s S           unrecorded warmup before repeat 1 "
      "(default 0.5)\n"
      "  --repeats N            measured repeats (default 3)\n"
      "  --theta T              Zipf skew in [0,1) (default 0.99)\n"
      "  --k K                  top-K per request (default 10)\n"
      "  --relation R           edge type id or name (default: first "
      "target relation)\n"
      "  --seed S               load RNG seed (default 1)\n"
      "  --min-requests N       exit 1 unless >= N requests succeeded "
      "(default 1)\n"
      "  --json-out PATH        write BENCH_serve.json-style report\n"
      "in-process mode extras: --scale, --dim, --shards, --model-seed, "
      "--serve-workers\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args.flags[argv[i] + 2] = argv[i + 1];
  }

  LoadPlan plan;
  const std::string mode = args.Get("mode", "closed");
  if (mode != "open" && mode != "closed") return Usage();
  plan.open_loop = mode == "open";
  plan.concurrency = static_cast<size_t>(args.GetUint("concurrency", 4));
  if (plan.concurrency == 0) plan.concurrency = 1;
  plan.qps = args.GetDouble("qps", 1000.0);
  plan.duration_s = args.GetDouble("duration-s", 5.0);
  plan.theta = args.GetDouble("theta", 0.99);
  plan.k = static_cast<size_t>(args.GetUint("k", 10));
  plan.seed = args.GetUint("seed", 1);
  const double warmup_s = args.GetDouble("warmup-s", 0.5);
  const size_t repeats = static_cast<size_t>(args.GetUint("repeats", 3));
  const uint64_t min_requests = args.GetUint("min-requests", 1);
  if (plan.theta < 0.0 || plan.theta >= 1.0) {
    std::fprintf(stderr, "--theta must be in [0, 1)\n");
    return 2;
  }

  // The dataset defines the user universe and relation names in both
  // modes (HTTP targets serve a model over the same generated dataset).
  auto data = MakePaperDataset(args.Get("dataset", "taobao"),
                               args.GetDouble("scale", 1.0),
                               args.GetUint("dataset-seed", 7));
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  std::vector<NodeId> users;
  for (NodeId v = 0; v < data.value().num_nodes(); ++v) {
    if (data.value().node_types[v] == data.value().query_type) {
      users.push_back(v);
    }
  }
  if (users.empty()) {
    std::fprintf(stderr, "dataset has no query-type nodes\n");
    return 1;
  }
  const std::string relation_text = args.Get("relation", "");
  if (relation_text.empty()) {
    plan.relation = data.value().target_relations[0];
  } else if (auto id = ParseUint(relation_text); id.ok()) {
    plan.relation = static_cast<EdgeTypeId>(id.value());
  } else if (auto named = data.value().schema.EdgeType(relation_text);
             named.ok()) {
    plan.relation = named.value();
  } else {
    std::fprintf(stderr, "unknown relation: %s\n", relation_text.c_str());
    return 2;
  }

  // Build the client: HTTP against --target, else in-process engine over
  // a restored checkpoint.
  std::unique_ptr<Client> client;
  std::unique_ptr<SupaModel> model;
  std::unique_ptr<serve::ServeEngine> engine;
  std::string target = args.Get("target", "");
  if (!target.empty()) {
    if (target.rfind("http://", 0) == 0) target = target.substr(7);
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--target needs host:port\n");
      return 2;
    }
    std::string host = target.substr(0, colon);
    const uint16_t port = static_cast<uint16_t>(
        std::strtoul(target.c_str() + colon + 1, nullptr, 10));
    const size_t slash = host.find('/');
    if (slash != std::string::npos) host.resize(slash);
    client = std::make_unique<HttpClient>(host, port);
  } else {
    SupaConfig config;
    config.dim = static_cast<int>(args.GetUint("dim", 64));
    config.seed = args.GetUint("model-seed", 42);
    config.shards = static_cast<size_t>(args.GetUint("shards", 0));
    auto split = SplitTemporal(data.value()).value();
    model = std::make_unique<SupaModel>(data.value(), config);
    for (size_t i = split.train.begin; i < split.train.end; ++i) {
      if (Status st = model->ObserveEdge(data.value().edges[i]); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (Status st = LoadCheckpoint(args.Get("checkpoint", "supa_model.bin"),
                                   model.get());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    serve::ServeOptions serve_options;
    serve_options.workers =
        static_cast<size_t>(args.GetUint("serve-workers", 2));
    engine = std::make_unique<serve::ServeEngine>(model.get(), &data.value(),
                                                  serve_options);
    engine->Start();
    client = std::make_unique<InprocClient>(engine.get());
  }

  if (warmup_s > 0.0) {
    LoadPlan warm = plan;
    warm.duration_s = warmup_s;
    RunRepeat(client.get(), warm, users, /*repeat_index=*/~0ull,
              /*record=*/false);
  }

  std::vector<RepeatSummary> summaries;
  uint64_t total_requests = 0;
  bool all_served = true;
  for (size_t r = 0; r < repeats; ++r) {
    const RepeatSummary s =
        RunRepeat(client.get(), plan, users, r, /*record=*/true);
    summaries.push_back(s);
    total_requests += s.requests;
    if (s.requests == 0) all_served = false;
    std::printf(
        "repeat %zu/%zu: %llu ok, %llu err | qps %.1f | p50 %.1fus "
        "p95 %.1fus p99 %.1fus max %.1fus\n",
        r + 1, repeats, static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.errors), s.qps, s.p50_us, s.p95_us,
        s.p99_us, s.max_us);
  }
  if (engine != nullptr) engine->Stop();

  const std::string json_out = args.Get("json-out", "");
  if (!json_out.empty()) {
    const auto config = [&](obs::JsonWriter* w) {
      w->Field("dataset", std::string_view(data.value().name));
      w->Field("transport", std::string_view(target.empty() ? "inproc"
                                                            : "http"));
      w->Field("concurrency", static_cast<double>(plan.concurrency));
      if (plan.open_loop) w->Field("qps_target", plan.qps);
      w->Field("duration_s", plan.duration_s);
      w->Field("theta", plan.theta);
      w->Field("k", static_cast<double>(plan.k));
      w->Field("relation", std::string_view(data.value().schema.EdgeTypeName(
                               plan.relation)));
      w->Field("users", static_cast<double>(users.size()));
      w->Field("seed", static_cast<double>(plan.seed));
      if (client->max_staleness() > 0) {
        w->Field("max_staleness_edges",
                 static_cast<double>(client->max_staleness()));
      }
    };
    std::string error;
    if (!obs::WriteTextFile(json_out, ReportJson(mode, config, summaries),
                            &error)) {
      std::fprintf(stderr, "writing %s: %s\n", json_out.c_str(),
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "report -> %s\n", json_out.c_str());
  }

  if (!all_served || total_requests < min_requests) {
    std::fprintf(stderr,
                 "FAILED: %llu requests succeeded (need >= %llu, every "
                 "repeat > 0)\n",
                 static_cast<unsigned long long>(total_requests),
                 static_cast<unsigned long long>(min_requests));
    return 1;
  }
  std::printf("total: %llu requests ok\n",
              static_cast<unsigned long long>(total_requests));
  return 0;
}

}  // namespace
}  // namespace supa

int main(int argc, char** argv) { return supa::Main(argc, argv); }
