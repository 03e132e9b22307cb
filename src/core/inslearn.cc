#include "core/inslearn.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "core/ingest.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/statusz.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace supa {
namespace {

/// Fixed shard count for the parallel validation score — independent of
/// the thread count so the score is bit-identical at any `threads`
/// setting (see util/thread_pool.h).
constexpr size_t kValidationShards = 32;

/// Periodic throughput reporter and live-progress publisher for the
/// training loop. Tick() is called once per trained edge but only reads
/// the clock every 256 steps, so the between-beats cost is one relaxed
/// atomic increment and a branch. The constructor registers a /statusz
/// provider that reads the same atomics from the admin thread; the
/// destructor unregisters it (StatusScope), so a provider never outlives
/// its run. Observational only: never touches model state or RNG streams.
class Heartbeat {
 public:
  Heartbeat(double interval_seconds, EdgeRange range)
      : interval_(interval_seconds),
        edges_total_(range.size()),
        rate_gauge_(obs::MetricsRegistry::Global().GetGauge(
            "inslearn.edges_per_sec")),
        status_scope_("inslearn",
                      [this] { return StatusItems(); }) {}

  void Tick() {
    const uint64_t steps =
        steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (interval_ <= 0.0) return;
    if ((steps & 255) != 0) return;
    const double elapsed = timer_.ElapsedSeconds();
    if (elapsed - last_beat_ < interval_) return;
    const double rate = static_cast<double>(steps - last_steps_) /
                        std::max(elapsed - last_beat_, 1e-9);
    rate_gauge_.Set(rate);
    SUPA_LOG(INFO) << "[inslearn] trained " << steps << " edges, "
                   << static_cast<uint64_t>(rate) << " edges/s"
                   << QuantileSuffix();
    PollWarnings();
    last_beat_ = elapsed;
    last_steps_ = steps;
  }

  /// Coarse phase label shown on /statusz ("train", "validate", ...).
  void SetPhase(const char* phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }

  /// Records a finished batch and its best validation score.
  void BatchDone(double best_score) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    best_score_.store(best_score, std::memory_order_relaxed);
  }

  /// Publishes the whole-run average rate; called once at run end.
  void Finish() {
    SetPhase("done");
    const uint64_t steps = steps_.load(std::memory_order_relaxed);
    if (steps == 0) return;
    const double elapsed = timer_.ElapsedSeconds();
    rate_gauge_.Set(static_cast<double>(steps) / std::max(elapsed, 1e-9));
  }

 private:
  /// Total of the five training phases' `perf.<phase>.<slot>` counters.
  /// Both the serial trainer and the ingest pipeline record those
  /// domains, so the per-edge hardware cost works at any writer count.
  static uint64_t PhasePerfSum(const obs::MetricsSnapshot& snapshot,
                               const char* slot) {
    uint64_t total = 0;
    for (const char* phase :
         {"sample", "update", "propagate", "negative", "optimize"}) {
      total += snapshot.CounterValue(std::string("perf.") + phase + "." +
                                     slot);
    }
    return total;
  }

  /// ", queue_wait_us p50/p95/p99 2/11/52" for each live histogram, plus
  /// the per-edge hardware cost since the last beat when profiling is on.
  /// One registry snapshot per beat — far off the hot path.
  std::string QuantileSuffix() {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    struct NamedHist {
      const char* metric;
      const char* label;
    };
    std::string out;
    for (const NamedHist h : {NamedHist{"threadpool.queue_wait_us",
                                        "queue_wait_us"},
                              NamedHist{"snapshot.dirty_rows",
                                        "dirty_rows"}}) {
      const obs::MetricsSnapshot::Entry* e = snapshot.Find(h.metric);
      if (e == nullptr || e->count == 0) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", %s p50/p95/p99 %.0f/%.0f/%.0f",
                    h.label, e->Quantile(0.50), e->Quantile(0.95),
                    e->Quantile(0.99));
      out += buf;
    }
    if (obs::PerfProfiler::Global().enabled()) {
      const uint64_t cycles = PhasePerfSum(snapshot, "cycles");
      const uint64_t llc_misses = PhasePerfSum(snapshot, "llc_misses");
      const uint64_t steps = steps_.load(std::memory_order_relaxed);
      if (steps > last_hw_steps_) {
        const double denom = static_cast<double>(steps - last_hw_steps_);
        const double cyc_per_edge =
            static_cast<double>(cycles - last_hw_cycles_) / denom;
        const double miss_per_edge =
            static_cast<double>(llc_misses - last_hw_llc_misses_) / denom;
        hw_cycles_per_edge_.store(cyc_per_edge, std::memory_order_relaxed);
        hw_llc_misses_per_edge_.store(miss_per_edge,
                                      std::memory_order_relaxed);
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", hw cyc/edge %.0f llc_miss/edge %.1f", cyc_per_edge,
                      miss_per_edge);
        out += buf;
        last_hw_steps_ = steps;
        last_hw_cycles_ = cycles;
        last_hw_llc_misses_ = llc_misses;
      }
    }
    return out;
  }

  /// Beat-time warning poll (training thread): surfaces new model-monitor
  /// alerts and trace-ring drops on the training log. Change detection via
  /// the monotone counters keeps a stable system silent; SUPA_LOG_EVERY_N
  /// bounds the output when a condition re-fires every beat.
  void PollWarnings() {
    const auto& monitor = obs::ModelMonitor::Global();
    const uint64_t raised = monitor.alerts_raised();
    if (raised > last_alerts_seen_) {
      last_alerts_seen_ = raised;
      if (monitor.worst_level() == obs::AlertLevel::kCritical) {
        SUPA_LOG_EVERY_N(ERROR, 10)
            << "[inslearn] model monitor critical alert (" << raised
            << " total firings) — see /modelz";
      } else {
        SUPA_LOG_EVERY_N(WARNING, 10)
            << "[inslearn] model drift warning (" << raised
            << " total alert firings) — see /modelz";
      }
    }
    const uint64_t dropped = obs::TraceRecorder::Global().dropped_events();
    if (dropped > last_trace_dropped_) {
      last_trace_dropped_ = dropped;
      SUPA_LOG_EVERY_N(WARNING, 10)
          << "[inslearn] trace ring dropped " << dropped
          << " events (oldest overwritten) — raise the ring capacity or "
             "export more often";
    }
  }

  std::vector<obs::StatusItem> StatusItems() const {
    char buf[32];
    std::vector<obs::StatusItem> items;
    items.push_back({"phase", phase_.load(std::memory_order_relaxed)});
    items.push_back({"edges_trained",
                     std::to_string(steps_.load(std::memory_order_relaxed))});
    items.push_back({"edges_total", std::to_string(edges_total_)});
    items.push_back(
        {"batches_done",
         std::to_string(batches_.load(std::memory_order_relaxed))});
    std::snprintf(buf, sizeof(buf), "%.4f",
                  best_score_.load(std::memory_order_relaxed));
    items.push_back({"best_score", buf});
    std::snprintf(buf, sizeof(buf), "%.0f", rate_gauge_.Value());
    items.push_back({"edges_per_sec", buf});
    if (obs::PerfProfiler::Global().enabled()) {
      std::snprintf(buf, sizeof(buf), "%.0f",
                    hw_cycles_per_edge_.load(std::memory_order_relaxed));
      items.push_back({"hw_cycles_per_edge", buf});
      std::snprintf(buf, sizeof(buf), "%.1f",
                    hw_llc_misses_per_edge_.load(std::memory_order_relaxed));
      items.push_back({"hw_llc_misses_per_edge", buf});
      items.push_back({"hw_perf_source",
                       obs::PerfSourceName(
                           obs::PerfProfiler::Global().source())});
    }
    return items;
  }

  const double interval_;
  const size_t edges_total_;
  obs::Gauge rate_gauge_;
  Timer timer_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<double> best_score_{0.0};
  std::atomic<const char*> phase_{"train"};
  /// Latest per-edge hardware cost, published at beat time for /statusz.
  std::atomic<double> hw_cycles_per_edge_{0.0};
  std::atomic<double> hw_llc_misses_per_edge_{0.0};
  uint64_t last_steps_ = 0;   // training thread only
  double last_beat_ = 0.0;    // training thread only
  uint64_t last_alerts_seen_ = 0;    // training thread only
  uint64_t last_trace_dropped_ = 0;  // training thread only
  uint64_t last_hw_steps_ = 0;       // training thread only
  uint64_t last_hw_cycles_ = 0;      // training thread only
  uint64_t last_hw_llc_misses_ = 0;  // training thread only
  obs::StatusScope status_scope_;  // last member: registered when the
                                   // atomics above are already constructed
};

/// Runs training passes over spans of edges, routed once per run: the
/// serial TrainEdge loop at writer_threads <= 1 (the bit-identical
/// reference), else the multi-writer IngestPipeline (DESIGN.md §13). Every
/// trained edge counts one report step and ticks the heartbeat.
class SpanTrainer {
 public:
  SpanTrainer(SupaModel& model, size_t writer_threads,
              InsLearnReport* report, Heartbeat* heartbeat)
      : model_(model), report_(report), heartbeat_(heartbeat) {
    if (writer_threads > 1) {
      IngestOptions options;
      options.writers = writer_threads;
      pipeline_ = std::make_unique<IngestPipeline>(model, options);
    }
  }

  /// Trains edges [begin, end) of `edges` once, observing each edge after
  /// its step when `observe` (the first pass over a batch).
  Status Train(const std::vector<TemporalEdge>& edges, size_t begin,
               size_t end, bool observe) {
    if (pipeline_ != nullptr) {
      return pipeline_->TrainSpan(
          edges, begin, end, observe, [this](const TrainStats&) { Count(); },
          &report_->train_seconds, &report_->observe_seconds);
    }
    for (size_t i = begin; i < end; ++i) {
      {
        StopwatchGuard guard(&report_->train_seconds);
        auto stats = model_.TrainEdge(edges[i]);
        if (!stats.ok()) return stats.status();
      }
      Count();
      if (observe) {
        StopwatchGuard guard(&report_->observe_seconds);
        SUPA_RETURN_NOT_OK(model_.ObserveEdge(edges[i]));
      }
    }
    return Status::OK();
  }

 private:
  void Count() {
    ++report_->train_steps;
    heartbeat_->Tick();
  }

  SupaModel& model_;
  InsLearnReport* report_;
  Heartbeat* heartbeat_;
  std::unique_ptr<IngestPipeline> pipeline_;
};

/// Copies a finished report into the process-wide metrics registry.
/// Handles are looked up by name here — this runs once per Train() call,
/// not in the per-edge hot path.
void PublishReport(const InsLearnReport& report) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("inslearn.train_steps").Increment(report.train_steps);
  reg.GetCounter("inslearn.batches").Increment(report.num_batches);
  reg.GetCounter("inslearn.iterations").Increment(report.iterations);
  reg.GetCounter("inslearn.phase.train_ns").AddSeconds(report.train_seconds);
  reg.GetCounter("inslearn.phase.valid_ns").AddSeconds(report.valid_seconds);
  reg.GetCounter("inslearn.phase.snapshot_ns")
      .AddSeconds(report.snapshot_seconds);
  reg.GetCounter("inslearn.phase.observe_ns")
      .AddSeconds(report.observe_seconds);
  reg.GetCounter("inslearn.phase.checkpoint_ns")
      .AddSeconds(report.checkpoint_seconds);
}

}  // namespace

Result<InsLearnReport> InsLearnTrainer::Train(SupaModel& model,
                                              const Dataset& data,
                                              EdgeRange range,
                                              const TrainerCursor* resume) {
  if (range.end > data.edges.size() || range.begin > range.end) {
    return Status::OutOfRange("bad training range");
  }
  if (resume != nullptr) {
    if (!config_.single_pass) {
      return Status::InvalidArgument(
          "cursor resume requires the single-pass workflow");
    }
    if (resume->next_edge_index < range.begin ||
        resume->next_edge_index > range.end) {
      return Status::OutOfRange("resume cursor outside the training range");
    }
  }
  if (range.empty()) return InsLearnReport{};
  SUPA_TRACE_SPAN_CAT("inslearn/train", "inslearn");
  auto result = config_.single_pass
                    ? TrainSinglePass(model, data, range, resume)
                    : TrainFullPass(model, data, range);
  if (result.ok()) PublishReport(result.value());
  return result;
}

double InsLearnTrainer::ValidationScore(const SupaModel& model,
                                        const Dataset& data, size_t begin,
                                        size_t end, Rng& rng) const {
  if (end <= begin) return 0.0;
  SUPA_TRACE_SPAN_CAT("inslearn/validate", "inslearn");
  const auto& types = data.node_types;
  // One draw from the caller's stream keys this invocation, so successive
  // validation rounds see fresh negatives; within the invocation each
  // shard derives its own generator from that key, so the score does not
  // depend on how many threads execute the shards.
  const uint64_t base_seed = rng.Next();
  const size_t num_edges = end - begin;
  const size_t num_shards = std::min(num_edges, kValidationShards);
  std::vector<double> shard_sum(num_shards, 0.0);
  std::vector<size_t> shard_count(num_shards, 0);
  ParallelFor(config_.threads, num_shards, [&](size_t shard) {
    Rng shard_rng(SplitMix64At(base_seed, shard));
    const size_t shard_begin = begin + shard * num_edges / num_shards;
    const size_t shard_end = begin + (shard + 1) * num_edges / num_shards;
    for (size_t i = shard_begin; i < shard_end; ++i) {
      const TemporalEdge& e = data.edges[i];
      const double gt = model.Score(e.src, e.dst, e.type);
      size_t worse = 0;
      size_t drawn = 0;
      // Rank against sampled same-type negatives.
      const size_t want = config_.valid_negatives;
      for (size_t attempt = 0; attempt < want * 4 && drawn < want;
           ++attempt) {
        const NodeId cand = static_cast<NodeId>(shard_rng.Index(types.size()));
        if (cand == e.dst || cand == e.src) continue;
        if (types[cand] != types[e.dst]) continue;
        ++drawn;
        if (model.Score(e.src, cand, e.type) > gt) ++worse;
      }
      shard_sum[shard] += 1.0 / static_cast<double>(worse + 1);
      ++shard_count[shard];
    }
  });
  // Reduce in fixed shard order for bit-identical results at any thread
  // count.
  double sum = 0.0;
  size_t count = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    sum += shard_sum[shard];
    count += shard_count[shard];
  }
  obs::MetricsRegistry::Global()
      .GetCounter("inslearn.valid_rounds")
      .Increment();
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

Result<InsLearnReport> InsLearnTrainer::TrainSinglePass(
    SupaModel& model, const Dataset& data, EdgeRange range,
    const TrainerCursor* resume) {
  InsLearnReport report;
  Rng valid_rng(config_.seed);
  // Resuming from a durable cursor: the model already holds the cursor's
  // parameter/graph/RNG state (dur::Recover restored it); the trainer
  // restores its own stream and picks up at the cursor's batch boundary.
  // Cuts only ever happen at batch boundaries, so next_edge_index lands on
  // the same boundary lattice the uninterrupted run walked.
  const size_t start_edge =
      resume != nullptr ? static_cast<size_t>(resume->next_edge_index)
                        : range.begin;
  uint64_t batches_done = resume != nullptr ? resume->batches_done : 0;
  if (resume != nullptr) valid_rng.set_state(resume->valid_rng);
  Heartbeat heartbeat(config_.heartbeat_seconds, range);

  // One durable cut: captures a checkpoint link for the model's current
  // state plus everything the resumed trainer needs (stream position,
  // batch count, both RNG streams). The engine fills in the WAL sequence.
  auto durable_cut = [&](size_t next_edge) -> Status {
    if (config_.checkpoint_sink == nullptr) return Status::OK();
    StopwatchGuard guard(&report.checkpoint_seconds);
    SUPA_TRACE_SPAN_CAT("inslearn/checkpoint", "inslearn");
    heartbeat.SetPhase("checkpoint");
    TrainerCursor cursor;
    cursor.next_edge_index = next_edge;
    cursor.batches_done = batches_done;
    cursor.model_rng = model.rng_state();
    cursor.valid_rng = valid_rng.state();
    const Status st = config_.checkpoint_sink->OnCheckpoint(model, cursor);
    heartbeat.SetPhase("train");
    return st;
  };

  SpanTrainer spans(model, config_.writer_threads, &report, &heartbeat);

  // Initial cut: guards the killed-during-first-batch window — recovery
  // always has at least this link to restart from.
  SUPA_RETURN_NOT_OK(durable_cut(start_edge));

  for (size_t b0 = start_edge; b0 < range.end; b0 += config_.batch_size) {
    SUPA_TRACE_SPAN_CAT("inslearn/batch", "inslearn");
    const size_t b1 = std::min(b0 + config_.batch_size, range.end);
    const size_t batch_len = b1 - b0;
    // STEP 2: the last S_valid edges of the batch are the validation set.
    size_t valid_len = std::min(config_.valid_size, batch_len / 5);
    const size_t train_end = b1 - valid_len;

    double best_score = 0.0;
    int patience_used = 0;
    // Φ_best is captured lazily on the first validation improvement; a
    // batch that never improves (or never validates) pays nothing.
    bool have_best = false;
    SupaModel::DeltaSnapshot best_delta;
    SupaModel::Snapshot best_full;

    bool first_iteration = true;
    for (int iter = 1; iter <= config_.max_iters; ++iter) {
      SUPA_RETURN_NOT_OK(
          spans.Train(data.edges, b0, train_end, first_iteration));
      first_iteration = false;
      ++report.iterations;

      // STEP 3–4: periodic validation with early stopping.
      if (valid_len > 0 && iter % config_.valid_interval == 0) {
        double score = 0.0;
        {
          StopwatchGuard guard(&report.valid_seconds);
          heartbeat.SetPhase("validate");
          score = ValidationScore(model, data, train_end, b1, valid_rng);
          heartbeat.SetPhase("train");
        }
        if (score > best_score) {
          best_score = score;
          {
            StopwatchGuard guard(&report.snapshot_seconds);
            SUPA_TRACE_SPAN_CAT("inslearn/snapshot", "inslearn");
            if (config_.use_delta_snapshots) {
              best_delta = model.TakeDeltaSnapshot();
            } else {
              best_full = model.TakeSnapshot();
            }
          }
          have_best = true;
          patience_used = 0;
        } else {
          if (++patience_used > config_.patience) break;
        }
      }
      if (valid_len == 0) break;  // nothing to validate against: one pass
    }

    // STEP 5: roll back to the best validated model.
    if (have_best) {
      StopwatchGuard guard(&report.snapshot_seconds);
      SUPA_TRACE_SPAN_CAT("inslearn/rollback", "inslearn");
      if (config_.use_delta_snapshots) {
        model.RestoreDeltaSnapshot(best_delta);
      } else {
        model.RestoreSnapshot(best_full);
      }
    }
    report.batch_scores.push_back(best_score);
    heartbeat.BatchDone(best_score);

    // The validation edges are part of the stream; make them visible to
    // subsequent batches (graph only; per Algorithm 1 they are not trained).
    {
      StopwatchGuard guard(&report.observe_seconds);
      for (size_t i = train_end; i < b1; ++i) {
        SUPA_RETURN_NOT_OK(model.ObserveEdge(data.edges[i]));
      }
    }
    ++report.num_batches;
    ++batches_done;
    // Batch boundary: re-export the store.shard_* gauges so Prometheus
    // scrapes track shard balance without forcing a snapshot publish.
    model.graph_store().RefreshShardMetrics();
    // Durable cut point: no Φ_best snapshot is in flight and this batch's
    // validation edges are observed, so the state here is exactly what a
    // resumed trainer starting at b1 needs. The final boundary is always
    // cut so recovery never replays a completed run's tail.
    const size_t interval = std::max<size_t>(config_.ckpt_interval, 1);
    if (batches_done % interval == 0 || b1 == range.end) {
      SUPA_RETURN_NOT_OK(durable_cut(b1));
    }
  }
  heartbeat.Finish();
  return report;
}

Result<InsLearnReport> InsLearnTrainer::TrainFullPass(SupaModel& model,
                                                      const Dataset& data,
                                                      EdgeRange range) {
  InsLearnReport report;
  report.num_batches = 1;
  Rng valid_rng(config_.seed);
  Heartbeat heartbeat(config_.heartbeat_seconds, range);

  SpanTrainer spans(model, config_.writer_threads, &report, &heartbeat);

  const size_t n = range.size();
  size_t valid_len = std::min(config_.valid_size, n / 5);
  const size_t train_end = range.end - valid_len;

  double best_score = 0.0;
  int patience_used = 0;
  // Lazily captured on the first validation improvement, as in
  // TrainSinglePass.
  bool have_best = false;
  SupaModel::DeltaSnapshot best_delta;
  SupaModel::Snapshot best_full;

  for (int epoch = 1; epoch <= config_.full_pass_epochs; ++epoch) {
    SUPA_TRACE_SPAN_CAT("inslearn/epoch", "inslearn");
    SUPA_RETURN_NOT_OK(
        spans.Train(data.edges, range.begin, train_end, epoch == 1));
    ++report.iterations;
    if (valid_len > 0) {
      double score = 0.0;
      {
        StopwatchGuard guard(&report.valid_seconds);
        heartbeat.SetPhase("validate");
        score = ValidationScore(model, data, train_end, range.end, valid_rng);
        heartbeat.SetPhase("train");
      }
      report.batch_scores.push_back(score);
      heartbeat.BatchDone(score);
      if (score > best_score) {
        best_score = score;
        {
          StopwatchGuard guard(&report.snapshot_seconds);
          SUPA_TRACE_SPAN_CAT("inslearn/snapshot", "inslearn");
          if (config_.use_delta_snapshots) {
            best_delta = model.TakeDeltaSnapshot();
          } else {
            best_full = model.TakeSnapshot();
          }
        }
        have_best = true;
        patience_used = 0;
      } else if (++patience_used > config_.patience) {
        break;
      }
    }
    model.graph_store().RefreshShardMetrics();
  }
  if (have_best) {
    StopwatchGuard guard(&report.snapshot_seconds);
    SUPA_TRACE_SPAN_CAT("inslearn/rollback", "inslearn");
    if (config_.use_delta_snapshots) {
      model.RestoreDeltaSnapshot(best_delta);
    } else {
      model.RestoreSnapshot(best_full);
    }
  }
  {
    StopwatchGuard guard(&report.observe_seconds);
    for (size_t i = train_end; i < range.end; ++i) {
      SUPA_RETURN_NOT_OK(model.ObserveEdge(data.edges[i]));
    }
  }
  heartbeat.Finish();
  return report;
}

}  // namespace supa
