// Reproduces Figure 5: total running time (train + evaluate, summed over
// the 9 dynamic-link-prediction steps of Figure 4) per method on
// MovieLens. The paper's claim is the *ordering*: SUPA trains a stream
// faster than retrain-from-scratch baselines of comparable quality.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "baselines/registry.h"
#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/wal.h"
#include "eval/protocols.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "util/simd.h"
#include "util/timer.h"

namespace {

struct MethodRuntime {
  std::string method;
  double train_s = 0.0;
  double eval_s = 0.0;
};

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace supa;
  using namespace supa::bench;

  BenchEnv env;
  constexpr size_t kParts = 10;

  auto data_or = MakeMovielens(env.scale, 100);
  if (!data_or.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = data_or.value();

  Report report("Figure 5 — total running time of dynamic link prediction");
  report.SetHeader({"Method", "train_s", "eval_s", "total_s"});
  std::vector<MethodRuntime> method_runtimes;

  for (const auto& method : StrongBaselineNames()) {
    RegistryOptions options;
    options.dim = 64;
    options.effort = env.effort;
    auto model = MakeRecommender(method, options);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    EvalConfig eval;
    eval.max_test_edges = env.test_edges;
    eval.threads = env.threads;
    auto steps = RunDynamicProtocol(*model.value(), data, kParts, eval);
    if (!steps.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", method.c_str(),
                   steps.status().ToString().c_str());
      return 1;
    }
    double train_s = 0.0;
    double eval_s = 0.0;
    for (const auto& s : steps.value()) {
      train_s += s.train_seconds;
      eval_s += s.eval_seconds;
    }
    report.AddRow({method, Fmt(train_s, 2), Fmt(eval_s, 2),
                   Fmt(train_s + eval_s, 2)});
    method_runtimes.push_back({method, train_s, eval_s});
    SUPA_LOG(INFO) << "fig5: finished " << method;
  }

  report.Print();
  report.MaybeWriteTsv(OutPath(argc, argv));
  report.MaybeWriteJson(JsonOutPath(argc, argv));

  // SUPA per-phase runtime breakdown, emitted as BENCH_fig5.json so
  // dashboards and CI can track edges/sec without scraping tables.
  {
    auto run_inslearn = [&](InsLearnReport* out) -> double {
      SupaConfig mc;
      mc.dim = 64;
      SupaModel model(data, mc);
      InsLearnConfig tc;
      tc.threads = env.threads;
      tc.valid_interval = 2;  // snapshot-heavy: validate every 2 iterations
      InsLearnTrainer trainer(tc);
      const size_t n_edges = data.edges.size();
      Timer timer;
      auto r = trainer.Train(model, data, EdgeRange{0, n_edges});
      const double wall_s = timer.ElapsedSeconds();
      if (!r.ok()) {
        std::fprintf(stderr, "inslearn failed: %s\n",
                     r.status().ToString().c_str());
        return -1.0;
      }
      *out = r.value();
      return wall_s;
    };

    InsLearnReport report;
    // Registry deltas across the first run expose the snapshot machinery's
    // behavior (takes, restores) without the trainer having to thread them
    // through its report.
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    const double wall_s = run_inslearn(&report);
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    if (wall_s < 0.0) return 1;

    // Per-repeat timing samples of the identical workload. bench_compare
    // Welch-tests these arrays between two reports, so every run carries
    // its own noise estimate. Repeat 1 is the run above.
    const size_t repeats = std::max<size_t>(1, env.repeats);
    std::vector<double> wall_samples = {wall_s};
    std::vector<double> eps_samples = {
        static_cast<double>(data.edges.size()) / wall_s};
    std::vector<double> sps_samples = {
        report.train_seconds > 0.0
            ? static_cast<double>(report.train_steps) / report.train_seconds
            : 0.0};
    for (size_t rep = 1; rep < repeats; ++rep) {
      InsLearnReport r;
      const double rep_wall_s = run_inslearn(&r);
      if (rep_wall_s < 0.0) return 1;
      wall_samples.push_back(rep_wall_s);
      eps_samples.push_back(static_cast<double>(data.edges.size()) /
                            rep_wall_s);
      sps_samples.push_back(
          r.train_seconds > 0.0
              ? static_cast<double>(r.train_steps) / r.train_seconds
              : 0.0);
    }

    auto counter_delta = [&](const char* name) {
      return after.CounterValue(name) - before.CounterValue(name);
    };

    // Hardware-profiled repeats of the same workload, kept separate from
    // the timing repeats above so the wall_s/edges_per_sec samples stay
    // comparable with unprofiled baselines. Every tier of the degradation
    // ladder emits the same schema (all-zero ratios on PMU-less hosts);
    // "perf.source" below names the tier so readers know which.
    constexpr const char* kPerfPhases[] = {"sample", "update", "propagate",
                                           "negative", "optimize"};
    constexpr size_t kNumPerfPhases = 5;
    struct PhasePerfSamples {
      std::vector<double> llc_miss_rate;
      std::vector<double> ipc;
      std::vector<double> cycles_per_edge;
      uint64_t cycles = 0, instructions = 0;
      uint64_t llc_loads = 0, llc_misses = 0, scopes = 0;
    };
    PhasePerfSamples phase_perf[kNumPerfPhases];
    // Model-quality samples ride the profiled repeats: the monitor resets
    // per repeat, so each sample is one full training run's mean. Training
    // is bit-identical with the monitor on (pinned by tests), so these are
    // the same runs the perf counters see.
    std::vector<double> loss_samples, grad_norm_samples, mrr_samples;
    obs::ModelMonitorSnapshot model_snapshot;
    obs::PerfProfiler::Global().Enable(true);
    obs::ModelMonitor::Global().Enable(true);
    for (size_t rep = 0; rep < repeats; ++rep) {
      obs::ModelMonitor::Global().Reset();
      const obs::MetricsSnapshot perf_before =
          obs::MetricsRegistry::Global().Snapshot();
      InsLearnReport r;
      if (run_inslearn(&r) < 0.0) return 1;
      const obs::MetricsSnapshot perf_after =
          obs::MetricsRegistry::Global().Snapshot();
      model_snapshot = obs::ModelMonitor::Global().Snapshot();
      loss_samples.push_back(model_snapshot.train_loss.Mean());
      grad_norm_samples.push_back(model_snapshot.grad_norm.Mean());
      double mrr_sum = 0.0;
      for (double s : r.batch_scores) mrr_sum += s;
      mrr_samples.push_back(
          r.batch_scores.empty() ? 0.0
                                 : mrr_sum / r.batch_scores.size());
      for (size_t p = 0; p < kNumPerfPhases; ++p) {
        auto delta = [&](const char* slot) {
          const std::string name =
              std::string("perf.") + kPerfPhases[p] + "." + slot;
          return perf_after.CounterValue(name) -
                 perf_before.CounterValue(name);
        };
        const uint64_t cycles = delta("cycles");
        const uint64_t instructions = delta("instructions");
        const uint64_t loads = delta("llc_loads");
        const uint64_t misses = delta("llc_misses");
        const uint64_t scopes = delta("scopes");
        PhasePerfSamples& s = phase_perf[p];
        s.llc_miss_rate.push_back(
            loads > 0 ? static_cast<double>(misses) / loads : 0.0);
        s.ipc.push_back(
            cycles > 0 ? static_cast<double>(instructions) / cycles : 0.0);
        s.cycles_per_edge.push_back(
            scopes > 0 ? static_cast<double>(cycles) / scopes : 0.0);
        s.cycles += cycles;
        s.instructions += instructions;
        s.llc_loads += loads;
        s.llc_misses += misses;
        s.scopes += scopes;
      }
    }
    obs::ModelMonitor::Global().Enable(false);
    obs::PerfProfiler::Global().Enable(false);

    const size_t n_edges = data.edges.size();
    const double edges_per_sec =
        wall_s > 0.0 ? static_cast<double>(n_edges) / wall_s : 0.0;
    const double steps_per_sec =
        report.train_seconds > 0.0
            ? static_cast<double>(report.train_steps) / report.train_seconds
            : 0.0;

    Report phases("Figure 5c — SUPA InsLearn per-phase runtime");
    phases.SetHeader({"wall_s", "train_s", "valid_s", "snapshot_s",
                      "observe_s", "edges/s"});
    phases.AddRow({Fmt(wall_s, 2), Fmt(report.train_seconds, 2),
                   Fmt(report.valid_seconds, 2),
                   Fmt(report.snapshot_seconds, 4),
                   Fmt(report.observe_seconds, 2), Fmt(edges_per_sec, 0)});
    phases.Print();

    // Isolated snapshot-operation timings at a validation-interval-sized
    // write set (one 32-edge burst between take and restore — the
    // Algorithm 1 cadence): the Φ_best undo log against full copies.
    double take_full_s = 0.0, take_best_s = 0.0;
    double restore_full_s = 0.0, restore_best_s = 0.0;
    int reps = 0;
    {
      SupaConfig mc;
      mc.dim = 64;
      SupaModel model(data, mc);
      const size_t warm = std::min<size_t>(data.edges.size(), 2000);
      for (size_t i = 0; i < warm; ++i) {
        (void)model.TrainEdge(data.edges[i]);
        (void)model.ObserveEdge(data.edges[i]);
      }
      auto burst = [&](size_t at) {
        for (size_t j = 0; j < 32; ++j) {
          (void)model.TrainEdge(data.edges[(at + j) % warm]);
        }
      };
      Timer op;
      for (reps = 0; reps < 30; ++reps) {
        op.Reset();
        model.TakeBest();
        take_best_s += op.ElapsedSeconds();
        burst(static_cast<size_t>(reps) * 32);
        op.Reset();
        (void)model.RestoreBest();
        restore_best_s += op.ElapsedSeconds();

        op.Reset();
        SupaModel::Snapshot f = model.TakeSnapshot();
        take_full_s += op.ElapsedSeconds();
        burst(static_cast<size_t>(reps) * 32 + 7);
        op.Reset();
        model.RestoreSnapshot(f);
        restore_full_s += op.ElapsedSeconds();
      }
    }
    const double take_speedup =
        take_best_s > 0.0 ? take_full_s / take_best_s : 0.0;
    const double restore_speedup =
        restore_best_s > 0.0 ? restore_full_s / restore_best_s : 0.0;
    std::printf(
        "(snapshot ops over %d reps: take full %.3fms / best %.3fms = "
        "%.1fx; restore full %.3fms / best %.3fms = %.1fx)\n",
        reps, 1e3 * take_full_s / reps, 1e3 * take_best_s / reps,
        take_speedup, 1e3 * restore_full_s / reps,
        1e3 * restore_best_s / reps, restore_speedup);

    // Durability checkpoint ops (DESIGN.md §16): WAL append throughput per
    // fsync policy, and the delta chain's capture / compact / restore
    // costs. The two capture sizes pin the O(dirty-rows) claim — the
    // large burst dirties more rows and must cost proportionally more,
    // while the full base gather pays O(|params|) regardless.
    std::vector<double> wal_off_samples, wal_every_samples;
    std::vector<double> take_small_samples, take_large_samples;
    std::vector<double> base_gather_samples, compact_samples,
        chain_restore_samples;
    uint64_t delta_small_rows = 0, delta_large_rows = 0;
    {
      namespace fs = std::filesystem;
      const std::string opdir = "bench_checkpoint_ops.tmp";
      std::error_code ec;
      fs::remove_all(opdir, ec);
      fs::create_directories(opdir, ec);
      SupaConfig mc;
      mc.dim = 64;
      SupaModel model(data, mc);
      const size_t warm = std::min<size_t>(data.edges.size(), 2000);
      for (size_t i = 0; i < warm; ++i) {
        (void)model.TrainEdge(data.edges[i]);
        (void)model.ObserveEdge(data.edges[i]);
      }
      model.optimizer().set_checkpoint_tracking(true);
      auto burst = [&](size_t at, size_t count) {
        for (size_t j = 0; j < count; ++j) {
          (void)model.TrainEdge(data.edges[(at + j) % warm]);
        }
      };
      auto capture_after = [&](size_t at, size_t count, double* out_ms) {
        model.optimizer().ClearCheckpointDirty();
        burst(at, count);
        Timer t;
        auto delta = dur::CaptureDirtyRows(model);
        *out_ms = 1e3 * t.ElapsedSeconds();
        return delta;
      };

      // An 8-delta chain, in memory and on disk, for the compact/restore
      // measurements below.
      const dur::LogicalCheckpoint chain_base = dur::GatherLogicalState(model);
      std::vector<dur::DeltaCapture> chain;
      std::vector<std::string> chain_files;
      Status chain_st = dur::WriteBaseFile(opdir + "/chain.base", chain_base);
      for (int d = 0; d < 8 && chain_st.ok(); ++d) {
        double unused = 0.0;
        auto delta = capture_after(97 * static_cast<size_t>(d), 64, &unused);
        if (!delta.ok()) {
          chain_st = delta.status();
          break;
        }
        const std::string file =
            opdir + "/chain" + std::to_string(d) + ".delta";
        chain_st = dur::WriteDeltaFile(file, delta.value());
        chain.push_back(std::move(delta).value());
        chain_files.push_back(file);
      }
      if (!chain_st.ok()) {
        std::fprintf(stderr, "checkpoint_ops setup failed: %s\n",
                     chain_st.ToString().c_str());
        return 1;
      }

      for (size_t rep = 0; rep < repeats; ++rep) {
        // WAL append throughput, unsynced and fdatasync-per-record.
        const struct {
          dur::WalSync sync;
          size_t appends;
          std::vector<double>* out;
        } wal_runs[] = {{dur::WalSync::kOff, 4096, &wal_off_samples},
                        {dur::WalSync::kEvery, 64, &wal_every_samples}};
        for (const auto& run : wal_runs) {
          const std::string waldir = opdir + "/wal";
          fs::remove_all(waldir, ec);
          dur::WalOptions wo;
          wo.sync = run.sync;
          auto writer = dur::WalWriter::Open(waldir, wo, 0);
          if (!writer.ok()) {
            std::fprintf(stderr, "wal bench failed: %s\n",
                         writer.status().ToString().c_str());
            return 1;
          }
          dur::WalRecord rec;
          Timer t;
          for (size_t k = 0; k < run.appends; ++k) {
            rec.edge = data.edges[k % warm];
            (void)writer.value()->Append(rec);
          }
          (void)writer.value()->Close();
          run.out->push_back(static_cast<double>(run.appends) /
                             t.ElapsedSeconds());
        }

        double ms = 0.0;
        auto small = capture_after(31 * rep, 32, &ms);
        if (!small.ok()) return 1;
        take_small_samples.push_back(ms);
        delta_small_rows = small.value().num_rows();
        auto large = capture_after(53 * rep, 256, &ms);
        if (!large.ok()) return 1;
        take_large_samples.push_back(ms);
        delta_large_rows = large.value().num_rows();

        Timer t;
        const dur::LogicalCheckpoint full = dur::GatherLogicalState(model);
        base_gather_samples.push_back(1e3 * t.ElapsedSeconds());

        // Compact: fold the 8-delta chain into a copy of its base.
        t.Reset();
        dur::LogicalCheckpoint folded = chain_base;
        for (const auto& dlt : chain) (void)dur::ApplyDelta(dlt, &folded);
        compact_samples.push_back(1e3 * t.ElapsedSeconds());

        // Restore: materialise the same chain from disk.
        t.Reset();
        auto restored = dur::ReadBaseFile(opdir + "/chain.base");
        if (!restored.ok()) {
          std::fprintf(stderr, "chain restore failed: %s\n",
                       restored.status().ToString().c_str());
          return 1;
        }
        for (const std::string& file : chain_files) {
          auto dlt = dur::ReadDeltaFile(file);
          if (!dlt.ok()) return 1;
          (void)dur::ApplyDelta(dlt.value(), &restored.value());
        }
        chain_restore_samples.push_back(1e3 * t.ElapsedSeconds());
      }
      fs::remove_all(opdir, ec);
    }
    std::printf(
        "(checkpoint ops: wal append %.0f/s unsynced, %.0f/s synced; delta "
        "take %.3fms @%llu rows vs %.3fms @%llu rows; base gather %.3fms; "
        "compact %.3fms; chain restore %.3fms)\n",
        Mean(wal_off_samples), Mean(wal_every_samples),
        Mean(take_small_samples),
        static_cast<unsigned long long>(delta_small_rows),
        Mean(take_large_samples),
        static_cast<unsigned long long>(delta_large_rows),
        Mean(base_gather_samples), Mean(compact_samples),
        Mean(chain_restore_samples));

    obs::JsonWriter w;
    w.BeginObject();
    w.Field("dataset", "MovieLens");
    w.Field("scale", env.scale);
    w.Field("simd_backend", std::string_view(simd::BackendName()));
    w.Field("repeats", static_cast<uint64_t>(repeats));
    // Schema consumed by tools/bench_compare: one array of per-repeat
    // measurements per perf metric.
    w.Key("samples").BeginObject();
    auto sample_array = [&w](const char* name,
                             const std::vector<double>& xs) {
      w.Key(name).BeginArray();
      for (double x : xs) w.Double(x);
      w.EndArray();
    };
    sample_array("edges_per_sec", eps_samples);
    sample_array("train_steps_per_sec", sps_samples);
    sample_array("wall_s", wall_samples);
    // Model-quality samples (one per profiled repeat). bench_compare
    // knows the gate direction from the suffix: *_loss and *_grad_norm
    // regress upward, *_mrr regresses downward — a quality regression
    // gates even when wall_s is unchanged.
    sample_array("train_loss", loss_samples);
    sample_array("train_grad_norm", grad_norm_samples);
    sample_array("valid_mrr", mrr_samples);
    // Durability-path samples: *_per_sec gates downward regressions in
    // WAL append throughput, *_ms gates upward regressions in the delta
    // chain's capture / compact / restore costs.
    sample_array("wal_append_off_per_sec", wal_off_samples);
    sample_array("wal_append_every_per_sec", wal_every_samples);
    sample_array("ckpt_delta_take_small_ms", take_small_samples);
    sample_array("ckpt_delta_take_large_ms", take_large_samples);
    sample_array("ckpt_base_gather_ms", base_gather_samples);
    sample_array("ckpt_compact_ms", compact_samples);
    sample_array("ckpt_chain_restore_ms", chain_restore_samples);
    // Hardware-profile samples, one array per phase x derived metric. On
    // PMU-less hosts the ladder emits all-zero arrays under the same
    // names, so baseline/candidate schemas always line up.
    for (size_t p = 0; p < kNumPerfPhases; ++p) {
      const std::string prefix = std::string("phase_") + kPerfPhases[p];
      sample_array((prefix + "_llc_miss_rate").c_str(),
                   phase_perf[p].llc_miss_rate);
      sample_array((prefix + "_ipc").c_str(), phase_perf[p].ipc);
      sample_array((prefix + "_cycles_per_edge").c_str(),
                   phase_perf[p].cycles_per_edge);
    }
    w.EndObject();
    // Which rung of the degradation ladder produced the perf samples,
    // plus raw per-phase totals summed over the profiled repeats.
    w.Key("perf").BeginObject();
    w.Field("source", std::string_view(obs::PerfSourceName(
                          obs::PerfProfiler::Global().source())));
    w.Field("profiled_repeats", static_cast<uint64_t>(repeats));
    w.Key("phases").BeginObject();
    for (size_t p = 0; p < kNumPerfPhases; ++p) {
      const PhasePerfSamples& s = phase_perf[p];
      w.Key(kPerfPhases[p]).BeginObject();
      w.Field("scopes", s.scopes);
      w.Field("cycles", s.cycles);
      w.Field("instructions", s.instructions);
      w.Field("llc_loads", s.llc_loads);
      w.Field("llc_misses", s.llc_misses);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    w.Key("methods").BeginArray();
    for (const MethodRuntime& m : method_runtimes) {
      w.BeginObject();
      w.Field("method", m.method);
      w.Field("train_s", m.train_s);
      w.Field("eval_s", m.eval_s);
      w.Field("total_s", m.train_s + m.eval_s);
      w.EndObject();
    }
    w.EndArray();
    w.Key("supa_inslearn").BeginObject();
    w.Field("edges", static_cast<uint64_t>(n_edges));
    w.Field("train_steps", static_cast<uint64_t>(report.train_steps));
    w.Field("wall_s", wall_s);
    w.Field("edges_per_sec", edges_per_sec);
    w.Field("train_steps_per_sec", steps_per_sec);
    w.Key("phases").BeginObject();
    w.Field("train_s", report.train_seconds);
    w.Field("valid_s", report.valid_seconds);
    w.Field("snapshot_s", report.snapshot_seconds);
    w.Field("observe_s", report.observe_seconds);
    w.EndObject();
    w.Key("snapshot_ops").BeginObject();
    w.Field("take_full_ms", 1e3 * take_full_s / reps);
    w.Field("take_best_ms", 1e3 * take_best_s / reps);
    w.Field("take_speedup", take_speedup);
    w.Field("restore_full_ms", 1e3 * restore_full_s / reps);
    w.Field("restore_best_ms", 1e3 * restore_best_s / reps);
    w.Field("restore_speedup", restore_speedup);
    w.EndObject();
    // Durability engine operation costs (means over the sample arrays
    // above; the row counts pin the O(dirty) capture-scaling claim).
    w.Key("checkpoint_ops").BeginObject();
    w.Field("wal_append_off_per_sec", Mean(wal_off_samples));
    w.Field("wal_append_every_per_sec", Mean(wal_every_samples));
    w.Field("delta_take_small_ms", Mean(take_small_samples));
    w.Field("delta_take_small_rows", delta_small_rows);
    w.Field("delta_take_large_ms", Mean(take_large_samples));
    w.Field("delta_take_large_rows", delta_large_rows);
    w.Field("base_gather_ms", Mean(base_gather_samples));
    w.Field("compact_ms", Mean(compact_samples));
    w.Field("chain_restore_ms", Mean(chain_restore_samples));
    w.EndObject();
    // Model-monitor distributions from the last profiled repeat — the
    // point-in-time quality fingerprint behind the sample arrays above.
    w.Key("model").BeginObject();
    w.Field("train_steps", model_snapshot.train_steps);
    w.Field("observed_edges", model_snapshot.observed_edges);
    w.Field("train_loss_p50", model_snapshot.train_loss.Quantile(0.5));
    w.Field("train_loss_p99", model_snapshot.train_loss.Quantile(0.99));
    w.Field("grad_norm_p50", model_snapshot.grad_norm.Quantile(0.5));
    w.Field("grad_norm_p99", model_snapshot.grad_norm.Quantile(0.99));
    w.Field("distinct_users", model_snapshot.distinct_users);
    w.Field("distinct_items", model_snapshot.distinct_items);
    w.Field("new_node_rate", model_snapshot.new_node_rate);
    w.Field("alert_level",
            std::string_view(obs::AlertLevelName(model_snapshot.worst_level)));
    w.EndObject();
    // Registry counter deltas over the first run.
    w.Key("metrics").BeginObject();
    w.Field("snapshot_delta_takes", counter_delta("snapshot.delta_takes"));
    w.Field("snapshot_delta_restores",
            counter_delta("snapshot.delta_restores"));
    w.Field("sampler_walks", counter_delta("sampler.walks"));
    w.Field("sampler_walk_steps", counter_delta("sampler.walk_steps"));
    w.Field("sampler_arena_reuses", counter_delta("sampler.arena_reuses"));
    w.Field("sampler_arena_grows", counter_delta("sampler.arena_grows"));
    w.EndObject();
    w.EndObject();
    w.EndObject();
    const std::string json_path = "BENCH_fig5.json";
    std::string error;
    if (obs::WriteTextFile(json_path, w.str(), &error)) {
      std::printf("(wrote %s)\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   error.c_str());
    }
  }

  // Thread sweep: how much of the evaluation half of the runtime budget
  // parallelism recovers. SUPA is trained once on the temporal train
  // split; the identical evaluation workload is then timed per thread
  // count (metrics are thread-count invariant by construction).
  {
    RegistryOptions options;
    options.dim = 64;
    options.effort = env.effort;
    auto model = MakeRecommender("SUPA", options);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    auto split = SplitTemporal(data).value();
    if (Status st = model.value()->Fit(data, split.train); !st.ok()) {
      std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Report sweep("Figure 5b — SUPA evaluation time vs threads");
    sweep.SetHeader({"threads", "eval_s", "speedup"});
    double serial_s = 0.0;
    for (size_t threads : {1, 2, 4}) {
      EvalConfig eval;
      eval.max_test_edges = env.test_edges * 4;
      eval.threads = threads;
      Timer timer;
      auto r = EvaluateLinkPrediction(*model.value(), data, split.test,
                                      EdgeRange{0, split.valid.end}, eval);
      const double eval_s = timer.ElapsedSeconds();
      if (!r.ok()) {
        std::fprintf(stderr, "eval failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) serial_s = eval_s;
      sweep.AddRow({std::to_string(threads), Fmt(eval_s, 4),
                    Fmt(serial_s / eval_s, 2)});
    }
    sweep.Print();
  }
  return 0;
}
