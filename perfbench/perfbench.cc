// Pipeline benchmark for the SUPA / InsLearn stack. One invocation runs one
// workload through the library's public entry points only: the data
// generators, SupaModel + InsLearnTrainer::Train, dur::DurabilityEngine +
// dur::Recover, and serve::ServeEngine::Recommend.
//
//   perfbench --workload <wide_durable|serve_live> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--trace-out <file>] [--quick]
//
// A run has five phases:
//   set-up   input generation, model construction, durability attach,
//            engine start and warm-up; repeated, reported as the median
//   window   InsLearnTrainer::Train over a stream sized to --seconds, plus
//            the final DurabilityEngine::Flush on wide_durable and the
//            open-loop request stream on serve_live; in laps on fresh
//            set-ups (see Workload::laps), every lap ending in the same
//            state
//   serve    on wide_durable: the same open-loop request stream against
//            the trained model, after the window
//   check    the engine's top-K lists must equal RecommendTopK
//   recover  dur::Recover into fresh models, repeated; every recovered
//            state must equal the live model's final state
//
// Every phase is timed from outside, at the calls into the library, plus
// the counters the library already exports. With --trace 1 the window is
// one untraced lap and then one traced lap: from the traced lap's set-up
// on, the library's PerfProfiler and trace recorder are on and the
// recovery steps are re-timed one by one; those numbers fill the
// per-layer metrics.
//
// The last stdout line is one JSON object with the checks, the counts of
// attempted and failed operations, every metric with its unit, and the
// run's provenance. perfbench/run.py turns it into the benchmark result.
// The exit code is 0 only when every check passed.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/engine.h"
#include "dur/manifest.h"
#include "dur/recovery.h"
#include "dur/wal.h"
#include "eval/predictor.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/zipf.h"

namespace supa::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Workloads ---------------------------------------------------------

// Open-loop request stream: a fixed per-workload rate well below
// saturation, Zipf(θ) users, at most kSenders sender threads.
constexpr size_t kSenders = 2;
constexpr double kZipfTheta = 0.99;
constexpr size_t kTopK = 10;
constexpr size_t kWarmupRequests = 100;
// Requests due in an open loop's first second (a quarter second in quick
// runs) are sent but not timed: the first epochs published under training
// pay one-off allocator costs.
constexpr double kLoadWarmupSeconds = 1.0;
constexpr double kQuickLoadWarmupSeconds = 0.25;
// Senders sleep until this long before a request is due, then spin.
constexpr std::chrono::microseconds kSpinBeforeDue{200};
// serve.p99_ms is the median of the p99s of consecutive slices of this
// many timed requests (at least 10 beyond each slice's p99), so one burst
// of host stalls moves one slice, not the whole figure.
constexpr size_t kSliceRequests = 1000;
// Host speed shifts in spells of seconds, so the recovery repeats are
// spread over at least this long instead of landing in one spell.
constexpr double kRecoverSpreadSeconds = 4.0;
constexpr size_t kCheckUsers = 32;

struct Workload {
  std::string_view name;
  /// Nominal train-split edges per second on one core; sizes the stream
  /// so the window lasts about --seconds.
  double edges_per_second;
  /// DurabilityEngine attached during the window.
  bool durable;
  /// Requests are sent during the window (else in a phase after it).
  bool serve_in_window;
  /// Open-loop request rate (requests/s) and, for the serve phase after
  /// the window, the request count.
  double request_rate;
  size_t serve_requests;
  size_t setup_repeats;
  size_t recover_repeats;
  /// Untraced runs split the window into this many laps: each lap trains
  /// a fresh model of the same set-up on the same stream (--seconds / laps
  /// long) and must end in the same state. ingest_eps and cpu_us_per_edge
  /// come from the median lap, and the requests of every lap are pooled.
  /// Traced runs make two laps of this length, the first untraced.
  size_t laps;
};

constexpr Workload kWorkloads[] = {
    {"wide_durable", 1150.0, true, false, 500.0, 2500, 3, 7, 1},
    // At --seconds 30 each of the two laps covers the whole 16k-edge
    // Taobao train split.
    {"serve_live", 1100.0, false, true, 300.0, 0, 15, 31, 2},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// The flat-popularity stream of wide_durable: a large node set, a mild
/// Zipf exponent, so no node becomes a hub.
Result<Dataset> MakeWideStream(size_t train_edges, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "Wide";
  spec.node_types = {{"User", 70000}, {"Item", 10000}};
  spec.relations = {{"Click", "User", "Item", 0.85, false},
                    {"Buy", "User", "Item", 0.15, true}};
  // SplitTemporal keeps the first 80% as the train split.
  spec.num_events = train_edges * 5 / 4 + 64;
  spec.num_clusters = 10;
  spec.zipf_s = 0.6;
  spec.metapaths =
      "User -{Click,Buy}-> Item -{Click,Buy}-> User;"
      "Item -{Click,Buy}-> User -{Click,Buy}-> Item";
  spec.query_type = "User";
  spec.target_type = "Item";
  spec.target_relations = {"Click", "Buy"};
  return GenerateSynthetic(spec, seed);
}

Result<Dataset> MakeInput(const Workload& w, size_t train_edges,
                          uint64_t seed) {
  if (w.name == "serve_live") return MakeTaobao(1.0, seed);
  return MakeWideStream(train_edges, seed);
}

// ---- Small helpers -----------------------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// Median over consecutive slices of `in_order` (each at least
/// kSliceRequests long when there are that many) of each slice's p99.
double SlicedP99(const std::vector<double>& in_order, size_t* slices) {
  const size_t n = in_order.size();
  *slices = std::max<size_t>(1, n / kSliceRequests);
  std::vector<double> p99s;
  for (size_t i = 0; i < *slices; ++i) {
    std::vector<double> slice(in_order.begin() + i * n / *slices,
                              in_order.begin() + (i + 1) * n / *slices);
    std::sort(slice.begin(), slice.end());
    p99s.push_back(Quantile(slice, 0.99));
  }
  return Median(p99s);
}

/// Times one call into the library. In traced runs the interval is also
/// recorded as a span on the program's trace recorder.
class CallTimer {
 public:
  CallTimer(const char* name, double* seconds)
      : name_(name), seconds_(seconds), start_(obs::TraceRecorder::NowNs()) {}
  ~CallTimer() {
    const uint64_t end = obs::TraceRecorder::NowNs();
    *seconds_ += 1e-9 * static_cast<double>(end - start_);
    obs::TraceRecorder::Global().Record(name_, "perfbench", start_, end);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  const char* name_;
  double* seconds_;
  uint64_t start_;
};

/// Forwards durable cuts to the engine and times each one.
class TimedCheckpointSink : public CheckpointSink {
 public:
  explicit TimedCheckpointSink(CheckpointSink* inner) : inner_(inner) {}
  Status OnCheckpoint(SupaModel& model, const TrainerCursor& cursor) override {
    double seconds = 0.0;
    Status st;
    {
      CallTimer timer("dur/cut", &seconds);
      st = inner_->OnCheckpoint(model, cursor);
    }
    cut_seconds.push_back(seconds);
    return st;
  }
  std::vector<double> cut_seconds;

 private:
  CheckpointSink* inner_;
};

/// RecommendTopK's view of the live model (the reference ranking).
class LiveModelView : public Recommender {
 public:
  explicit LiveModelView(const SupaModel& model) : model_(model) {}
  std::string name() const override { return "SUPA"; }
  Status Fit(const Dataset&, EdgeRange) override {
    return Status::FailedPrecondition("read-only view");
  }
  double Score(NodeId u, NodeId v, EdgeTypeId r) const override {
    return model_.Score(u, v, r);
  }

 private:
  const SupaModel& model_;
};

/// What must survive a durable round trip: CRC32C over the logical
/// params, m and v, the Adam step, and the graph's edge count.
struct StateDigest {
  uint32_t crc = 0;
  uint64_t adam_step = 0;
  uint64_t edges = 0;
  bool operator==(const StateDigest&) const = default;
};

StateDigest Digest(const SupaModel& model) {
  const dur::LogicalCheckpoint lc = dur::GatherLogicalState(model);
  const size_t bytes = lc.params.size() * sizeof(float);
  uint32_t crc = Crc32c(lc.params.data(), bytes);
  crc = Crc32c(lc.m.data(), bytes, crc);
  crc = Crc32c(lc.v.data(), bytes, crc);
  return {crc, lc.meta.adam_step, model.graph().num_edges()};
}

// ---- Open-loop load ----------------------------------------------------

struct LoadResult {
  /// Due time → response per timed request, in due order; a failed or
  /// rejected request is +inf (slower than any limit).
  std::vector<double> latency_ms;
  /// Admission → completion inside the engine (successful requests).
  std::vector<double> engine_ms;
  std::vector<double> staleness_edges;
  double late_max_ms = 0.0;
  uint64_t sent = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
};

/// Appends `part`'s requests to `into`, in order after those already there.
void Append(const LoadResult& part, LoadResult* into) {
  const auto extend = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  extend(&into->latency_ms, part.latency_ms);
  extend(&into->engine_ms, part.engine_ms);
  extend(&into->staleness_edges, part.staleness_edges);
  into->late_max_ms = std::max(into->late_max_ms, part.late_max_ms);
  into->sent += part.sent;
  into->rejected += part.rejected;
  into->failed += part.failed;
}

/// Sends a fixed request list on a fixed schedule (request j is due at
/// start + j / rate) from kSenders threads, regardless of how long earlier
/// requests took. Each request is timed from its due time; requests due
/// in the first `warmup_s` are sent and counted but not timed.
class OpenLoop {
 public:
  OpenLoop(serve::ServeEngine* engine,
           std::vector<serve::RecommendRequest> requests, double rate,
           double warmup_s)
      : engine_(engine),
        requests_(std::move(requests)),
        rate_(rate),
        warmup_s_(warmup_s) {}
  ~OpenLoop() { Stop(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Start() {
    start_ = Clock::now();
    parts_.assign(kSenders, LoadResult{});
    latency_ms_.assign(requests_.size(),
                       std::numeric_limits<double>::quiet_NaN());
    for (size_t s = 0; s < kSenders; ++s) {
      senders_.emplace_back([this, s] { SendLoop(s); });
    }
  }

  /// No request is sent after this returns; in-flight ones complete.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    Join();
  }

  /// Waits until every request of the list has been sent and answered.
  void Join() {
    for (std::thread& t : senders_) t.join();
    senders_.clear();
  }

  LoadResult Collect() const {
    LoadResult out;
    for (double ms : latency_ms_) {
      if (!std::isnan(ms)) out.latency_ms.push_back(ms);
    }
    for (const LoadResult& p : parts_) Append(p, &out);
    return out;
  }

 private:
  void SendLoop(size_t sender) {
    LoadResult& out = parts_[sender];
    serve::RecommendResponse resp;
    for (size_t j = sender; j < requests_.size(); j += kSenders) {
      const Clock::time_point due =
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(j) / rate_));
      // Sleep to just short of the due time, then spin to it: a sleeping
      // thread wakes late by a host-dependent amount, which would time the
      // generator's own wake-up rather than the engine.
      std::this_thread::sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      if (stop_.load(std::memory_order_acquire)) return;
      const Clock::time_point sent = Clock::now();
      out.late_max_ms = std::max(out.late_max_ms, 1e3 * Seconds(due, sent));
      const Status st = engine_->Recommend(requests_[j], &resp);
      const double ms = 1e3 * Seconds(due, Clock::now());
      const bool timed = static_cast<double>(j) >= warmup_s_ * rate_;
      ++out.sent;
      if (st.ok()) {
        if (!timed) continue;
        latency_ms_[j] = ms;  // each j belongs to exactly one sender
        out.engine_ms.push_back(1e-3 * resp.latency_us);
        out.staleness_edges.push_back(
            static_cast<double>(resp.staleness_edges));
      } else {
        latency_ms_[j] = std::numeric_limits<double>::infinity();
        const bool refused = st.code() == StatusCode::kResourceExhausted ||
                             st.code() == StatusCode::kFailedPrecondition;
        ++(refused ? out.rejected : out.failed);
      }
    }
  }

  serve::ServeEngine* engine_;
  const std::vector<serve::RecommendRequest> requests_;
  const double rate_;
  const double warmup_s_;
  std::atomic<bool> stop_{false};
  Clock::time_point start_;
  std::vector<LoadResult> parts_;
  std::vector<double> latency_ms_;  // by request index; NaN = not timed
  std::vector<std::thread> senders_;
};

/// `count` requests for Zipf(θ)-popular users of the query type.
std::vector<serve::RecommendRequest> MakeRequests(const Dataset& data,
                                                  size_t count,
                                                  uint64_t seed) {
  std::vector<NodeId> users;
  for (NodeId v = 0; v < data.num_nodes(); ++v) {
    if (data.node_types[v] == data.query_type) users.push_back(v);
  }
  Rng rng(seed);
  const FastZipf zipf(users.size(), kZipfTheta);
  std::vector<serve::RecommendRequest> out(count);
  for (serve::RecommendRequest& req : out) {
    req.user = users[zipf.Sample(rng)];
    req.relation = data.target_relations[0];
    req.k = kTopK;
  }
  return out;
}

// ---- Durability helpers --------------------------------------------------

dur::DurabilityOptions DurableOptions(const std::string& dir) {
  dur::DurabilityOptions options;
  options.dir = dir;
  return options;
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

/// Writes a durability directory holding `live`'s final state: a fresh
/// model with an attached engine takes the live parameters and observes
/// the same stream (logging the WAL), then makes one durable cut. Used by
/// the workloads that train without durability, so recovery is measured
/// on every workload.
Status WriteFinalStateDir(const Dataset& data, const SupaConfig& config,
                          const SupaModel& live, EdgeRange range,
                          const std::string& dir) {
  SUPA_RETURN_NOT_OK(ResetDir(dir));
  SupaModel copy(data, config);
  SUPA_ASSIGN_OR_RETURN(std::unique_ptr<dur::DurabilityEngine> engine,
                        dur::DurabilityEngine::Attach(copy, DurableOptions(dir)));
  copy.RestoreSnapshot(live.TakeSnapshot());
  for (size_t i = range.begin; i < range.end; ++i) {
    SUPA_RETURN_NOT_OK(copy.ObserveEdge(data.edges[i]));
  }
  TrainerCursor cursor;
  cursor.next_edge_index = range.end;
  cursor.model_rng = live.rng_state();
  SUPA_RETURN_NOT_OK(engine->OnCheckpoint(copy, cursor));
  return engine->Flush();
}

struct RecoverRuns {
  std::vector<double> seconds;  // one per successful call
  uint64_t failed = 0;
  uint64_t mismatched = 0;  // recovered state differs from `want`
  uint64_t links = 0;
  uint64_t records = 0;
};

/// Recovers `dir` into a fresh model `repeats` times, spread evenly over
/// `spread_s`, timing each dur::Recover call and comparing each recovered
/// state with `want`.
RecoverRuns RecoverRepeatedly(const std::string& dir, const Dataset& data,
                              const SupaConfig& config,
                              const StateDigest& want, size_t repeats,
                              double spread_s) {
  // A recovering process starts with no memory to reuse: every buffer of a
  // real recovery is freshly mapped and page-faulted. Each repeat gets the
  // same cost by pinning glibc's mmap threshold at its initial 128 KiB
  // (which stops its history-dependent raising) and returning all free
  // heap memory before each call; left to the allocator's history, one
  // recovery took 10 or 24 ms depending on the seed.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  RecoverRuns out;
  const Clock::time_point start = Clock::now();
  for (size_t rep = 0; rep < repeats; ++rep) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        spread_s * static_cast<double>(rep) /
                        static_cast<double>(repeats))));
    malloc_trim(0);
    SupaModel model(data, config);
    double seconds = 0.0;
    Result<dur::RecoveryReport> rec = dur::RecoveryReport{};
    {
      CallTimer timer("recover", &seconds);
      rec = dur::Recover(dir, &model);
    }
    if (!rec.ok()) {
      std::fprintf(stderr, "perfbench: recover: %s\n",
                   rec.status().ToString().c_str());
      ++out.failed;
      continue;
    }
    out.seconds.push_back(seconds);
    out.links = rec.value().links_applied;
    out.records = rec.value().wal_records_replayed;
    if (!(Digest(model) == want)) ++out.mismatched;
  }
  return out;
}

struct RecoverParts {
  double base_read_s = 0.0;
  double delta_apply_s = 0.0;
  double wal_read_s = 0.0;
  double replay_s = 0.0;
};

/// Re-times the steps dur::Recover takes, one public call at a time:
/// the newest link's base, its deltas, the WAL, and the graph replay.
Result<RecoverParts> TimeRecoverParts(const std::string& dir,
                                      const Dataset& data,
                                      const SupaConfig& config) {
  RecoverParts parts;
  SUPA_ASSIGN_OR_RETURN(const dur::Manifest manifest, dur::LoadManifest(dir));
  if (manifest.links.empty()) return Status::FailedPrecondition("no links");
  const size_t last = manifest.links.size() - 1;
  size_t base = last;
  while (manifest.links[base].kind != dur::ManifestLink::Kind::kBase) {
    if (base == 0) return Status::FailedPrecondition("no base link");
    --base;
  }
  dur::LogicalCheckpoint state;
  {
    CallTimer timer("recover/base_read", &parts.base_read_s);
    SUPA_ASSIGN_OR_RETURN(state,
                          dur::ReadBaseFile(dir + "/" + manifest.links[base].file));
  }
  {
    CallTimer timer("recover/delta_apply", &parts.delta_apply_s);
    for (size_t i = base + 1; i <= last; ++i) {
      SUPA_ASSIGN_OR_RETURN(const dur::DeltaCapture delta,
                            dur::ReadDeltaFile(dir + "/" + manifest.links[i].file));
      SUPA_RETURN_NOT_OK(dur::ApplyDelta(delta, &state));
    }
  }
  dur::WalReplay replay;
  {
    CallTimer timer("recover/wal_read", &parts.wal_read_s);
    SUPA_ASSIGN_OR_RETURN(replay, dur::ReadWal(dir));
  }
  SupaModel model(data, config);
  {
    CallTimer timer("recover/replay", &parts.replay_s);
    SUPA_RETURN_NOT_OK(model.RebuildNegativeTable());
    const uint64_t n =
        std::min<uint64_t>(manifest.links[last].wal_seq, replay.records.size());
    for (uint64_t s = 0; s < n; ++s) {
      const dur::WalRecord& rec = replay.records[s];
      if (rec.type == dur::WalRecord::kAddEdge) {
        SUPA_RETURN_NOT_OK(model.ObserveEdge(rec.edge));
      } else {
        SUPA_RETURN_NOT_OK(
            model.ReplayRemoveEdge(rec.edge.src, rec.edge.dst, rec.edge.type));
      }
    }
  }
  return parts;
}

// ---- Metric output -------------------------------------------------------

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  void Write(obs::JsonWriter* w) const {
    w->BeginObject();
    for (const Entry& e : entries_) {
      w->Key(e.name).BeginObject();
      w->Field("value", std::isfinite(e.value) ? e.value : 1e9);
      w->Field("unit", e.unit);
      w->EndObject();
    }
    w->EndObject();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Registry difference between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(obs::MetricsSnapshot before, obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double Counter(std::string_view name) const {
    return static_cast<double>(after_.CounterValue(name) -
                               before_.CounterValue(name));
  }
  double HistSum(std::string_view name) const {
    return Hist(after_, name, true) - Hist(before_, name, true);
  }
  double HistCount(std::string_view name) const {
    return Hist(after_, name, false) - Hist(before_, name, false);
  }
  /// Task-clock seconds charged to a PerfProfiler domain.
  double TaskClock(std::string_view domain) const {
    return 1e-9 * Counter("perf." + std::string(domain) + ".task_clock_ns");
  }

 private:
  static double Hist(const obs::MetricsSnapshot& s, std::string_view name,
                     bool sum) {
    const auto* e = s.Find(name);
    if (e == nullptr) return 0.0;
    return sum ? e->sum : static_cast<double>(e->count);
  }
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

obs::MetricsSnapshot Registry() {
  return obs::MetricsRegistry::Global().Snapshot();
}

// ---- The run ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string workdir;
  std::string trace_out;
};

/// Everything a set-up builds; the last repeat's instance runs the first
/// lap, and every further lap gets a fresh one.
struct World {
  Dataset data;
  EdgeRange range;
  std::unique_ptr<SupaModel> model;
  std::unique_ptr<dur::DurabilityEngine> durability;
  std::unique_ptr<serve::ServeEngine> engine;
  double generate_s = 0.0;
  double construct_s = 0.0;
};

/// What one lap of the window measured.
struct Lap {
  double window_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads
  double train_call_s = 0.0;
  double flush_s = 0.0;
  uint64_t epochs = 0;  // store epochs published
  InsLearnReport report;
  std::vector<double> cut_seconds;
  LoadResult load;  // requests sent during the lap
  RegistryDelta registry;
  StateDigest digest;  // the model's state at the end of the lap
};

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 2;
}

struct TopKCheck {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

/// Asks the engine for the top-K of up to kCheckUsers distinct users and
/// compares each list with RecommendTopK on the same, idle model.
TopKCheck CheckTopK(serve::ServeEngine* engine, const SupaModel& model,
                    const Dataset& data, EdgeRange range, uint64_t seed) {
  const LiveModelView view(model);
  TopKOptions options;
  options.k = kTopK;
  options.exclude_seen = true;
  options.seen = {0, range.end};
  TopKCheck out;
  std::vector<NodeId> users;
  serve::RecommendResponse resp;
  for (const auto& req : MakeRequests(data, 4 * kCheckUsers, seed)) {
    if (users.size() == kCheckUsers) break;
    if (std::find(users.begin(), users.end(), req.user) != users.end()) {
      continue;
    }
    users.push_back(req.user);
    ++out.checked;
    const Status st = engine->Recommend(req, &resp);
    auto want = RecommendTopK(view, data, req.user, req.relation, options);
    if (!st.ok() || !want.ok() || resp.items != want.value()) ++out.mismatched;
  }
  return out;
}

void WarmUp(serve::ServeEngine* engine, const Dataset& data, uint64_t seed) {
  serve::RecommendResponse resp;
  for (const auto& req : MakeRequests(data, kWarmupRequests, seed)) {
    (void)engine->Recommend(req, &resp);
  }
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const uint64_t data_seed = SplitMix64At(args.seed, 0);
  const uint64_t model_seed = SplitMix64At(args.seed, 1);
  const uint64_t valid_seed = SplitMix64At(args.seed, 2);
  const uint64_t load_seed = SplitMix64At(args.seed, 3);
  // Edges per lap.
  const size_t want_edges = std::max<size_t>(
      1024, static_cast<size_t>(std::llround(args.seconds * w->edges_per_second /
                                             static_cast<double>(w->laps))));
  const size_t setup_repeats = args.quick ? 2 : w->setup_repeats;
  const size_t recover_repeats = args.quick ? 2 : w->recover_repeats;
  // A traced run makes two laps: the first untraced, the second traced.
  // Quick runs keep two laps where there are several, so the lap check runs.
  const size_t num_laps =
      args.trace ? 2 : (args.quick ? std::min<size_t>(2, w->laps) : w->laps);
  const double load_warmup_s =
      args.quick ? kQuickLoadWarmupSeconds : kLoadWarmupSeconds;
  const size_t serve_requests =
      args.quick ? static_cast<size_t>(w->request_rate * 2 * load_warmup_s)
                 : w->serve_requests;
  const std::string dur_dir = args.workdir + "/dur";

  SupaConfig model_config;
  model_config.seed = model_seed;
  model_config.shards = 1;

  // One set-up: input generation, model construction, durability attach,
  // engine start and warm-up. The durability directory is reset first,
  // outside the timed part.
  const auto build_world = [&](std::unique_ptr<World>* out,
                               double* setup_seconds) -> Status {
    out->reset();  // one model in memory at a time
    if (w->durable) SUPA_RETURN_NOT_OK(ResetDir(dur_dir));
    const Clock::time_point t0 = Clock::now();
    auto next = std::make_unique<World>();
    {
      CallTimer timer("setup/generate", &next->generate_s);
      SUPA_ASSIGN_OR_RETURN(next->data, MakeInput(*w, want_edges, data_seed));
    }
    SUPA_ASSIGN_OR_RETURN(const TemporalSplit split, SplitTemporal(next->data));
    next->range = {split.train.begin,
                   split.train.begin + std::min(want_edges, split.train.size())};
    {
      CallTimer timer("setup/construct", &next->construct_s);
      next->model = std::make_unique<SupaModel>(next->data, model_config);
    }
    if (w->durable) {
      CallTimer timer("setup/attach", &next->construct_s);
      SUPA_ASSIGN_OR_RETURN(
          next->durability,
          dur::DurabilityEngine::Attach(*next->model, DurableOptions(dur_dir)));
    }
    if (w->serve_in_window) {
      next->engine = std::make_unique<serve::ServeEngine>(next->model.get(),
                                                          &next->data);
      next->engine->Start();
      WarmUp(next->engine.get(), next->data, load_seed);
    }
    *setup_seconds = Seconds(t0, Clock::now());
    *out = std::move(next);
    return Status::OK();
  };

  // One lap of the timed window on `world`'s fresh model.
  const auto run_lap = [&](World& world, Lap* lap) -> Status {
    InsLearnConfig trainer_config;
    trainer_config.seed = valid_seed;
    trainer_config.threads = 1;
    trainer_config.writer_threads = 1;
    std::unique_ptr<TimedCheckpointSink> cuts;
    if (w->durable) {
      cuts = std::make_unique<TimedCheckpointSink>(world.durability.get());
      trainer_config.checkpoint_sink = cuts.get();
    }
    InsLearnTrainer trainer(trainer_config);
    std::unique_ptr<OpenLoop> live_load;
    if (w->serve_in_window) {
      // Enough requests for three times the nominal lap.
      const size_t count = static_cast<size_t>(
          w->request_rate * (3.0 * args.seconds / static_cast<double>(w->laps) +
                             10.0));
      live_load = std::make_unique<OpenLoop>(
          world.engine.get(),
          MakeRequests(world.data, count, SplitMix64At(load_seed, 1)),
          w->request_rate, load_warmup_s);
    }
    const uint64_t epoch0 = world.model->graph_store().epoch();
    const obs::MetricsSnapshot reg0 = Registry();
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point w0 = Clock::now();
    if (live_load) live_load->Start();
    Result<InsLearnReport> trained = InsLearnReport{};
    {
      CallTimer timer("train", &lap->train_call_s);
      trained = trainer.Train(*world.model, world.data, world.range);
    }
    Status flushed;
    if (trained.ok() && w->durable) {
      CallTimer timer("dur/flush", &lap->flush_s);
      flushed = world.durability->Flush();
    }
    const Clock::time_point w1 = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    if (live_load) {
      live_load->Stop();
      lap->load = live_load->Collect();
    }
    lap->registry = RegistryDelta(reg0, Registry());
    lap->epochs = world.model->graph_store().epoch() - epoch0;
    SUPA_RETURN_NOT_OK(trained.status());
    SUPA_RETURN_NOT_OK(flushed);
    lap->report = std::move(trained).value();
    lap->window_s = Seconds(w0, w1);
    lap->cpu_s = cpu1 - cpu0;
    if (cuts) lap->cut_seconds = cuts->cut_seconds;
    lap->digest = Digest(*world.model);
    return Status::OK();
  };

  // ---- set-up, repeated; the last repeat's world is kept ----
  std::vector<double> setup_s, generate_s, construct_s;
  std::unique_ptr<World> world;
  for (size_t rep = 0; rep < setup_repeats; ++rep) {
    double seconds = 0.0;
    if (Status st = build_world(&world, &seconds); !st.ok()) {
      return Fail("set-up", st);
    }
    setup_s.push_back(seconds);
    generate_s.push_back(world->generate_s);
    construct_s.push_back(world->construct_s);
  }

  // ---- timed window, in laps; each lap after the first on a new world ----
  std::vector<Lap> laps(num_laps);
  for (size_t i = 0; i < num_laps; ++i) {
    if (args.trace && i + 1 == num_laps) {
      // The traced lap: the library's profiler and trace recorder record
      // from its set-up to the end of the run.
      obs::PerfProfiler::Global().Enable(true);
      obs::TraceRecorder::Global().Enable(true);
    }
    if (i > 0) {
      double seconds = 0.0;  // not a set-up sample: it may be traced
      if (Status st = build_world(&world, &seconds); !st.ok()) {
        return Fail("set-up", st);
      }
    }
    if (Status st = run_lap(*world, &laps[i]); !st.ok()) {
      return Fail("window", st);
    }
  }
  // Per-layer figures come from the last lap (the traced one when traced).
  const Lap& last = laps.back();
  const InsLearnReport& report = last.report;
  const RegistryDelta& win = last.registry;
  const Dataset& data = world->data;
  const EdgeRange range = world->range;
  const size_t edges = range.size();
  std::vector<double> lap_window_s, lap_cpu_s;
  bool laps_identical = true;
  for (const Lap& lap : laps) {
    lap_window_s.push_back(lap.window_s);
    lap_cpu_s.push_back(lap.cpu_s);
    laps_identical = laps_identical && lap.digest == last.digest &&
                     lap.report.batch_scores == report.batch_scores;
  }
  const double window_s = Median(lap_window_s);

  // ---- serve phase (after the window unless serving ran inside it) ----
  LoadResult load;
  RegistryDelta serve_delta = win;
  if (w->serve_in_window) {
    // A traced run's serving figures are the traced lap's alone.
    for (size_t i = args.trace ? laps.size() - 1 : 0; i < laps.size(); ++i) {
      Append(laps[i].load, &load);
    }
  } else {
    world->engine =
        std::make_unique<serve::ServeEngine>(world->model.get(), &data);
    world->engine->Start();
    WarmUp(world->engine.get(), data, load_seed);
    const obs::MetricsSnapshot s0 = Registry();
    OpenLoop after(world->engine.get(),
                   MakeRequests(data, serve_requests, SplitMix64At(load_seed, 1)),
                   w->request_rate, load_warmup_s);
    after.Start();
    after.Join();
    load = after.Collect();
    serve_delta = RegistryDelta(s0, Registry());
  }

  const TopKCheck topk =
      CheckTopK(world->engine.get(), *world->model, data, range, load_seed);
  world->engine->Stop();
  world->engine.reset();

  // Live-model facts needed after it is freed.
  size_t max_degree = 0;
  for (NodeId v = 0; v < data.num_nodes(); ++v) {
    max_degree = std::max(max_degree, world->model->graph().Degree(v));
  }
  size_t store_bytes = 0;
  for (size_t s = 0; s < world->model->graph_store().num_shards(); ++s) {
    store_bytes += world->model->graph_store().ShardBytesEstimate(s);
  }
  const StateDigest live_digest = last.digest;
  if (!w->durable) {
    if (Status st = WriteFinalStateDir(data, model_config, *world->model,
                                       range, dur_dir);
        !st.ok()) {
      return Fail("write final state", st);
    }
  }
  // Free the live model so peak RSS counts one model during recovery.
  world->durability.reset();
  world->model.reset();

  const RecoverRuns recovered =
      RecoverRepeatedly(dur_dir, data, model_config, live_digest,
                        recover_repeats, args.quick ? 0.0 : kRecoverSpreadSeconds);
  RecoverParts parts;
  if (args.trace) {
    auto timed = TimeRecoverParts(dur_dir, data, model_config);
    if (!timed.ok()) return Fail("recover parts", timed.status());
    parts = timed.value();
  }
  std::error_code ec;
  std::filesystem::remove_all(dur_dir, ec);

  // ---- metrics ----
  double mrr = 0.0;
  for (double s : report.batch_scores) mrr += s;
  if (!report.batch_scores.empty()) {
    mrr /= static_cast<double>(report.batch_scores.size());
  }
  size_t p99_slices = 0;
  const double serve_p99 = SlicedP99(load.latency_ms, &p99_slices);
  std::vector<double> latency = load.latency_ms;
  std::sort(latency.begin(), latency.end());
  std::vector<double> engine_ms = load.engine_ms;
  std::sort(engine_ms.begin(), engine_ms.end());
  std::vector<double> staleness = load.staleness_edges;
  std::sort(staleness.begin(), staleness.end());
  // Requests beyond the p99 of the smallest slice.
  const size_t slice_min = latency.size() / p99_slices;
  const size_t beyond_p99 =
      slice_min - std::min(slice_min, static_cast<size_t>(std::ceil(
                                          0.99 * static_cast<double>(slice_min))));

  const double steps = static_cast<double>(std::max<size_t>(report.train_steps, 1));
  const auto per_step_us = [&](std::string_view domain) {
    return 1e6 * win.TaskClock(domain) / steps;
  };
  const double step_us = per_step_us("train_edge");
  const double phases_us[] = {per_step_us("sample"), per_step_us("update"),
                              per_step_us("propagate"), per_step_us("negative"),
                              per_step_us("optimize")};
  double attributed_us = 0.0;
  for (double p : phases_us) attributed_us += p;
  const double phase_sum_s = report.train_seconds + report.valid_seconds +
                             report.snapshot_seconds + report.observe_seconds +
                             report.checkpoint_seconds;
  const double takes = win.Counter("snapshot.delta_takes") +
                       win.Counter("snapshot.full_takes") -
                       win.Counter("snapshot.rebases");
  const double restores = win.Counter("snapshot.delta_restores") +
                          win.Counter("snapshot.fallback_restores") +
                          win.Counter("snapshot.full_restores");
  const double restore_s = win.TaskClock("snapshot_restore");
  const double epochs = static_cast<double>(last.epochs);
  const double scored = serve_delta.Counter("serve.requests");
  const double serve_batches = serve_delta.HistCount("serve.batch_size");

  MetricSet m;
  // End-to-end.
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("ingest_eps", static_cast<double>(edges) / window_s, "edges/s");
  m.Add("cpu_us_per_edge",
        1e6 * Median(lap_cpu_s) / static_cast<double>(edges), "us");
  m.Add("valid_mrr", mrr, "ratio");
  m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  m.Add("recover_s", Median(recovered.seconds), "s");
  m.Add("serve_p50_ms", Quantile(latency, 0.50), "ms");
  m.Add("serve.p99_ms", serve_p99, "ms");
  // graph walker via the core sampler.
  m.Add("core.sample_us", phases_us[0], "us");
  m.Add("graph.walk_steps_per_step", win.Counter("sampler.walk_steps") / steps,
        "steps");
  m.Add("graph.max_degree", static_cast<double>(max_degree), "edges");
  // core model + Adam, per train step.
  m.Add("core.step_us", step_us, "us");
  m.Add("core.update_us", phases_us[1], "us");
  m.Add("core.propagate_us", phases_us[2], "us");
  m.Add("core.negative_us", phases_us[3], "us");
  m.Add("core.optimize_us", phases_us[4], "us");
  m.Add("core.unattributed_us", step_us - attributed_us, "us");
  // core InsLearn batch.
  m.Add("inslearn.train_s", report.train_seconds, "s");
  m.Add("inslearn.valid_s", report.valid_seconds, "s");
  m.Add("inslearn.snapshot_s", report.snapshot_seconds, "s");
  m.Add("inslearn.observe_s", report.observe_seconds, "s");
  m.Add("inslearn.checkpoint_s", report.checkpoint_seconds, "s");
  m.Add("inslearn.other_s", last.train_call_s - phase_sum_s, "s");
  m.Add("inslearn.train_steps", static_cast<double>(report.train_steps), "count");
  m.Add("inslearn.batches", static_cast<double>(report.num_batches), "count");
  // store: Φ_best snapshots. The take scope nests a full take inside every
  // re-base, so take time is the batch's snapshot wall time minus restore
  // task-clock, per take.
  m.Add("store.snapshot_take_us",
        takes > 0 ? 1e6 * std::max(0.0, report.snapshot_seconds - restore_s) / takes
                  : 0.0,
        "us");
  m.Add("store.snapshot_restore_us", restores > 0 ? 1e6 * restore_s / restores : 0.0,
        "us");
  m.Add("store.snapshot_rebases", win.Counter("snapshot.rebases"), "count");
  m.Add("store.snapshot_delta_takes", win.Counter("snapshot.delta_takes"), "count");
  m.Add("store.snapshot_fallback_restores", win.Counter("snapshot.fallback_restores"),
        "count");
  // store: epochs published during the window.
  m.Add("store.epochs_published", epochs, "count");
  m.Add("store.publish_mb", epochs * static_cast<double>(store_bytes) / (1 << 20),
        "MiB");
  // dur: writing during the window.
  m.Add("dur.cut_ms", 1e3 * Median(last.cut_seconds), "ms");
  m.Add("dur.flush_s", last.flush_s, "s");
  m.Add("dur.wal_appends", win.Counter("dur.wal_appends"), "count");
  m.Add("dur.wal_syncs", win.Counter("dur.wal_syncs"), "count");
  m.Add("dur.base_links", win.Counter("dur.ckpt_base_links"), "count");
  m.Add("dur.delta_links", win.Counter("dur.ckpt_delta_links"), "count");
  m.Add("dur.compactions", win.Counter("dur.compactions"), "count");
  m.Add("dur.dirty_rows", win.HistSum("dur.ckpt_dirty_rows"), "count");
  // dur: recovery, re-timed step by step in traced runs.
  m.Add("dur.recover.base_read_s", parts.base_read_s, "s");
  m.Add("dur.recover.delta_apply_s", parts.delta_apply_s, "s");
  m.Add("dur.recover.wal_read_s", parts.wal_read_s, "s");
  m.Add("dur.recover.replay_s", parts.replay_s, "s");
  m.Add("dur.recover.links", static_cast<double>(recovered.links), "count");
  m.Add("dur.recover.records", static_cast<double>(recovered.records), "count");
  // serve.
  m.Add("serve.engine_p50_ms", Quantile(engine_ms, 0.50), "ms");
  m.Add("serve.engine_p99_ms", Quantile(engine_ms, 0.99), "ms");
  m.Add("serve.score_us_per_req",
        scored > 0 ? 1e6 * serve_delta.TaskClock("serve_score") / scored : 0.0,
        "us");
  m.Add("serve.batch_mean",
        serve_batches > 0 ? serve_delta.HistSum("serve.batch_size") / serve_batches
                          : 0.0,
        "requests");
  m.Add("serve.staleness_edges_p50", Quantile(staleness, 0.50), "edges");
  m.Add("serve.late_max_ms", load.late_max_ms, "ms");
  m.Add("serve.sent", static_cast<double>(load.sent), "count");
  m.Add("serve.failed", static_cast<double>(load.failed + load.rejected), "count");
  // eval, data and construction, obs.
  m.Add("eval.valid_rounds", win.Counter("inslearn.valid_rounds"), "count");
  m.Add("data.generate_s", Median(generate_s), "s");
  m.Add("setup.construct_s", Median(construct_s), "s");
  if (args.trace) {
    m.Add("obs.trace_overhead", laps.back().window_s / laps.front().window_s,
          "ratio");
  }
  m.Add("obs.trace_dropped",
        static_cast<double>(obs::TraceRecorder::Global().dropped_events()),
        "count");

  // ---- checks ----
  struct Check {
    const char* name;
    bool ok;
  };
  const bool full_size = !args.quick;
  const Check checks[] = {
      {"train_covers_stream",
       report.num_batches > 0 && report.train_steps > 0 &&
           report.batch_scores.size() == report.num_batches},
      {"valid_mrr_in_range", mrr > 0.0 && mrr <= 1.0},
      {"recover_all_succeeded",
       recovered.failed == 0 && !recovered.seconds.empty()},
      {"laps_identical", laps_identical},
      {"recovered_state_equals_live", recovered.mismatched == 0},
      {"recovered_edges_equal_stream",
       live_digest.edges == edges && recovered.records >= edges},
      {"topk_equals_reference", topk.checked > 0 && topk.mismatched == 0},
      {"no_failed_requests", load.failed == 0 && load.rejected == 0},
      {"requests_beyond_p99_at_least_10", !full_size || beyond_p99 >= 10},
  };
  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;

  const uint64_t attempted =
      edges * laps.size() + recover_repeats + load.sent + topk.checked;
  const uint64_t failed =
      recovered.failed + load.failed + load.rejected + topk.mismatched;

  if (args.trace && !args.trace_out.empty()) {
    std::string error;
    if (!obs::TraceRecorder::Global().WriteJson(args.trace_out, &error)) {
      std::fprintf(stderr, "perfbench: trace export: %s\n", error.c_str());
    }
  }

  obs::JsonWriter out;
  out.BeginObject();
  out.Field("correct", correct);
  out.Field("attempted", attempted);
  out.Field("failed", failed);
  out.Key("metrics");
  m.Write(&out);
  out.Field("window_s", window_s);
  out.Key("lap_window_s").BeginArray();
  for (double t : lap_window_s) out.Double(t);
  out.EndArray();
  out.Key("checks").BeginObject();
  for (const Check& c : checks) out.Field(c.name, c.ok);
  out.EndObject();
  out.Key("samples").BeginObject();
  out.Field("setup_repeats", static_cast<uint64_t>(setup_s.size()));
  out.Field("recover_repeats", static_cast<uint64_t>(recovered.seconds.size()));
  out.Field("serve_latencies", static_cast<uint64_t>(latency.size()));
  out.Field("serve_p99_slices", static_cast<uint64_t>(p99_slices));
  out.Field("serve_beyond_p99_per_slice", static_cast<uint64_t>(beyond_p99));
  out.Field("engine_latencies", static_cast<uint64_t>(engine_ms.size()));
  out.Field("laps", static_cast<uint64_t>(laps.size()));
  out.Field("durable_cuts", static_cast<uint64_t>(last.cut_seconds.size()));
  out.EndObject();
  out.Key("operations").BeginObject();
  out.Field("edges_committed", static_cast<uint64_t>(edges * laps.size()));
  out.Field("recover_calls", static_cast<uint64_t>(recover_repeats));
  out.Field("recover_failed", recovered.failed);
  out.Field("requests_sent", load.sent);
  out.Field("requests_rejected", load.rejected);
  out.Field("requests_failed", load.failed);
  out.Field("topk_checked", topk.checked);
  out.Field("topk_mismatched", topk.mismatched);
  out.EndObject();
  out.Key("provenance").BeginObject();
  out.Field("workload", args.workload);
  out.Field("seed", args.seed);
  out.Field("data_seed", data_seed);
  out.Field("model_seed", model_seed);
  out.Field("valid_seed", valid_seed);
  out.Field("load_seed", load_seed);
  out.Field("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  out.Field("simd", std::string_view(simd::BackendName()));
  out.Field("crc32c", std::string_view(Crc32cBackendName()));
  out.Field("perf_tier", std::string_view(obs::PerfSourceName(
                             obs::PerfProfiler::Global().source())));
  out.Field("build_type", std::string_view(PERFBENCH_BUILD_TYPE));
  out.Field("nodes", static_cast<uint64_t>(data.num_nodes()));
  out.Field("edges", static_cast<uint64_t>(edges));
  out.Field("quick", args.quick);
  out.EndObject();
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0.0;
}

}  // namespace
}  // namespace supa::perfbench

int main(int argc, char** argv) {
  supa::perfbench::Args args;
  if (!supa::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--trace-out <file>] "
                 "[--quick]\n");
    return 2;
  }
  return supa::perfbench::Run(args);
}
