// Reproduces Figure 7: scalability in terms of fast-changing data. The
// training batch size S_batch is swept over powers of two; for each value
// we report the average per-batch (re)training time, the implied
// edges-per-second throughput, and the resulting H@50 — the paper's claim
// is time linear in S_batch with stable accuracy for S_batch >= 32.

#include <cmath>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "baselines/recommender.h"
#include "data/synthetic.h"
#include "eval/protocols.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "store/graph_store.h"
#include "util/timer.h"

namespace {

// SUPA_BENCH_SECTIONS: comma-separated subset of
// {batch,eval_threads,shards,writers} to run (unset/empty = all). Lets CI
// gate only the sections it uploads without paying for the full figure.
bool SectionEnabled(const char* name) {
  const char* spec = std::getenv("SUPA_BENCH_SECTIONS");
  if (spec == nullptr || *spec == '\0') return true;
  const size_t len = std::strlen(name);
  for (const char* p = spec; (p = std::strstr(p, name)) != nullptr; ++p) {
    const bool left_ok = (p == spec || p[-1] == ',');
    const bool right_ok = (p[len] == '\0' || p[len] == ',');
    if (left_ok && right_ok) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace supa;
  using namespace supa::bench;

  BenchEnv env;
  auto data_or = MakeMovielens(env.scale, 100);
  if (!data_or.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = data_or.value();
  auto split = SplitTemporal(data).value();

  Report report("Figure 7 — scalability vs training batch size S_batch");
  report.SetHeader({"S_batch", "avg_batch_s", "edges_per_s", "H@50", "MRR"});

  for (int log2_batch = 5; SectionEnabled("batch") && log2_batch <= 15;
       ++log2_batch) {
    const size_t batch = static_cast<size_t>(1) << log2_batch;
    SupaConfig model_config;
    model_config.dim = 64;
    InsLearnConfig train_config;
    train_config.batch_size = batch;
    train_config.max_iters = std::max(1, static_cast<int>(8 * env.effort));
    train_config.valid_interval = 4;
    SupaRecommender model(model_config, train_config);

    Timer timer;
    Status st = model.Fit(data, split.train);
    if (!st.ok()) {
      std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double total_s = timer.ElapsedSeconds();
    const size_t num_batches =
        (split.train.size() + batch - 1) / batch;
    const double avg_batch_s = total_s / static_cast<double>(num_batches);
    const double edges_per_s =
        static_cast<double>(split.train.size()) / total_s;

    EvalConfig eval;
    eval.max_test_edges = env.test_edges;
    eval.threads = env.threads;
    auto result = EvaluateLinkPrediction(model, data, split.test,
                                         EdgeRange{0, split.valid.end}, eval);
    if (!result.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    report.AddRow({std::to_string(batch), Fmt(avg_batch_s, 4),
                   Fmt(edges_per_s, 0), Fmt(result.value().hit50),
                   Fmt(result.value().mrr)});
    SUPA_LOG(INFO) << "fig7: S_batch=" << batch << " avg " << avg_batch_s
                   << "s/batch";
  }

  report.Print();
  report.MaybeWriteTsv(OutPath(argc, argv));

  // Thread sweep: evaluation scalability on the largest dataset of the
  // sweep. One model is trained once; the same link-prediction workload
  // is then timed at 1/2/4/8 eval threads. The determinism contract
  // (fixed sharding + per-shard seeds, see util/thread_pool.h) means the
  // metrics must be bit-identical across rows — only the time may change.
  if (SectionEnabled("eval_threads")) {
    SupaConfig model_config;
    model_config.dim = 64;
    InsLearnConfig train_config;
    train_config.batch_size = 4096;
    train_config.max_iters = std::max(1, static_cast<int>(8 * env.effort));
    train_config.valid_interval = 4;
    SupaRecommender model(model_config, train_config);
    Status st = model.Fit(data, split.train);
    if (!st.ok()) {
      std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
      return 1;
    }

    Report sweep("Figure 7b — evaluation scalability vs threads");
    sweep.SetHeader({"threads", "eval_s", "speedup", "H@50", "MRR"});
    double serial_s = 0.0;
    RankingResult serial_result;
    for (size_t threads : {1, 2, 4, 8}) {
      EvalConfig eval;
      // A larger case budget than the accuracy sweep so per-eval wall
      // time dominates the pool's scheduling overhead.
      eval.max_test_edges = env.test_edges * 4;
      eval.threads = threads;
      Timer timer;
      auto result = EvaluateLinkPrediction(
          model, data, split.test, EdgeRange{0, split.valid.end}, eval);
      const double eval_s = timer.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "eval failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) {
        serial_s = eval_s;
        serial_result = result.value();
      } else if (result.value().mrr != serial_result.mrr ||
                 result.value().hit50 != serial_result.hit50) {
        std::fprintf(stderr,
                     "determinism violation: threads=%zu diverged from "
                     "threads=1\n",
                     threads);
        return 1;
      }
      sweep.AddRow({std::to_string(threads), Fmt(eval_s, 4),
                    Fmt(serial_s / eval_s, 2), Fmt(result.value().hit50),
                    Fmt(result.value().mrr)});
      SUPA_LOG(INFO) << "fig7b: threads=" << threads << " eval " << eval_s
                     << "s";
    }
    sweep.Print();
  }

  // Shard sweep: the storage engine's shard count is a placement knob,
  // not a modelling one — training, evaluation, and checkpoint bytes are
  // bit-identical at every value (DESIGN.md §11). The sweep times Fit at
  // each count (one sample per SUPA_BENCH_REPEATS repeat, refitting from
  // scratch so every repeat is the identical workload), hard-asserts the
  // bit-identity contract against shards=1, and reports the per-shard
  // memory split the store.shard_bytes gauges expose.
  struct ShardPoint {
    size_t shards = 1;
    std::vector<double> fit_samples;  // per-repeat Fit wall seconds
    double edges_per_s = 0.0;         // from the last repeat
    std::vector<uint64_t> shard_bytes;
    RankingResult metrics;
  };
  std::vector<ShardPoint> shard_points;
  Report shard_report("Figure 7c — storage shard sweep (bit-identical)");
  shard_report.SetHeader({"shards", "fit_s", "edges_per_s", "max_shard_MB",
                          "total_MB", "H@50", "MRR"});
  const size_t shard_repeats = std::max<size_t>(1, env.repeats);
  std::vector<size_t> shard_counts;
  if (SectionEnabled("shards")) shard_counts = {1, 2, 4, 8};
  for (size_t shards : shard_counts) {
    ShardPoint point;
    point.shards = shards;
    for (size_t rep = 0; rep < shard_repeats; ++rep) {
      SupaConfig model_config;
      model_config.dim = 64;
      model_config.shards = shards;
      InsLearnConfig train_config;
      train_config.batch_size = 4096;
      train_config.max_iters = std::max(1, static_cast<int>(8 * env.effort));
      train_config.valid_interval = 4;
      SupaRecommender model(model_config, train_config);
      Timer timer;
      Status st = model.Fit(data, split.train);
      const double fit_s = timer.ElapsedSeconds();
      if (!st.ok()) {
        std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
        return 1;
      }
      point.fit_samples.push_back(fit_s);
      if (rep + 1 < shard_repeats) continue;

      point.edges_per_s =
          static_cast<double>(split.train.size()) / fit_s;
      const store::GraphStore& store = model.model()->graph_store();
      for (size_t s = 0; s < store.num_shards(); ++s) {
        point.shard_bytes.push_back(store.ShardBytesEstimate(s));
      }
      EvalConfig eval;
      eval.max_test_edges = env.test_edges;
      eval.threads = env.threads;
      auto result = EvaluateLinkPrediction(
          model, data, split.test, EdgeRange{0, split.valid.end}, eval);
      if (!result.ok()) {
        std::fprintf(stderr, "eval failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      point.metrics = result.value();
    }
    if (!shard_points.empty()) {
      const RankingResult& base = shard_points.front().metrics;
      if (point.metrics.mrr != base.mrr ||
          point.metrics.hit20 != base.hit20 ||
          point.metrics.hit50 != base.hit50 ||
          point.metrics.ndcg10 != base.ndcg10) {
        std::fprintf(stderr,
                     "determinism violation: shards=%zu diverged from "
                     "shards=1\n",
                     shards);
        return 1;
      }
    }
    uint64_t max_bytes = 0;
    uint64_t total_bytes = 0;
    for (uint64_t b : point.shard_bytes) {
      max_bytes = std::max(max_bytes, b);
      total_bytes += b;
    }
    const double mb = 1.0 / (1024.0 * 1024.0);
    shard_report.AddRow(
        {std::to_string(shards), Fmt(point.fit_samples.back(), 4),
         Fmt(point.edges_per_s, 0),
         Fmt(static_cast<double>(max_bytes) * mb, 2),
         Fmt(static_cast<double>(total_bytes) * mb, 2),
         Fmt(point.metrics.hit50), Fmt(point.metrics.mrr)});
    SUPA_LOG(INFO) << "fig7c: shards=" << shards << " fit "
                   << point.fit_samples.back() << "s, max shard "
                   << max_bytes << " bytes";
    shard_points.push_back(std::move(point));
  }
  shard_report.Print();

  // Writer sweep: the multi-writer ingest pipeline (DESIGN.md §13) at a
  // fixed 8-shard store. writers=1 is the serial trainer baseline; the
  // pipeline rows (2/4/8 writers) must be bit-identical to EACH OTHER
  // (grouping and the per-step RNG are writer-count independent). Only
  // wall time may move.
  struct WriterPoint {
    std::string label;  // "1".."8" — JSON sample key stem
    size_t writers = 1;
    std::vector<double> fit_samples;  // per-repeat Fit wall seconds
    double edges_per_s = 0.0;         // from the best repeat
    RankingResult metrics;
  };
  std::vector<WriterPoint> writer_points;
  Report writer_report("Figure 7d — multi-writer ingest sweep (8 shards)");
  writer_report.SetHeader(
      {"writers", "fit_s", "edges_per_s", "speedup", "H@50", "MRR"});
  if (SectionEnabled("writers")) {
    // Speedup needs spare cores: with fewer hardware threads than
    // writers the sweep measures pipeline overhead, not scaling. Say so
    // instead of letting a flat curve read as a regression.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      SUPA_LOG(WARNING)
          << "fig7d: only " << hw << " hardware thread(s); writer rows are "
          << "parallelism-starved — ratios measure pipeline overhead, "
          << "not multi-core scaling";
    }
    for (const size_t writers : {1, 2, 4, 8}) {
      WriterPoint point;
      point.writers = writers;
      point.label = std::to_string(writers);
      for (size_t rep = 0; rep < shard_repeats; ++rep) {
        SupaConfig model_config;
        model_config.dim = 64;
        model_config.shards = 8;
        InsLearnConfig train_config;
        train_config.batch_size = 4096;
        train_config.max_iters =
            std::max(1, static_cast<int>(8 * env.effort));
        train_config.valid_interval = 4;
        train_config.writer_threads = writers;
        SupaRecommender model(model_config, train_config);
        Timer timer;
        Status st = model.Fit(data, split.train);
        const double fit_s = timer.ElapsedSeconds();
        if (!st.ok()) {
          std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
          return 1;
        }
        point.fit_samples.push_back(fit_s);
        if (rep + 1 < shard_repeats) continue;

        EvalConfig eval;
        eval.max_test_edges = env.test_edges;
        eval.threads = env.threads;
        auto result = EvaluateLinkPrediction(
            model, data, split.test, EdgeRange{0, split.valid.end}, eval);
        if (!result.ok()) {
          std::fprintf(stderr, "eval failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        point.metrics = result.value();
      }
      double best_s = point.fit_samples.front();
      for (double s : point.fit_samples) best_s = std::min(best_s, s);
      point.edges_per_s = static_cast<double>(split.train.size()) / best_s;

      // Determinism cross-check: every writers>1 row equals writers=2.
      for (const WriterPoint& prev : writer_points) {
        if (writers <= 2 || prev.writers != 2) continue;
        const RankingResult& a = point.metrics;
        const RankingResult& b = prev.metrics;
        if (a.mrr != b.mrr || a.hit20 != b.hit20 || a.hit50 != b.hit50 ||
            a.ndcg10 != b.ndcg10) {
          std::fprintf(stderr,
                       "determinism violation: writers=%s diverged from "
                       "writers=%s\n",
                       point.label.c_str(), prev.label.c_str());
          return 1;
        }
      }

      double base_best = best_s;
      if (!writer_points.empty()) {
        base_best = writer_points.front().fit_samples.front();
        for (double s : writer_points.front().fit_samples) {
          base_best = std::min(base_best, s);
        }
      }
      writer_report.AddRow(
          {point.label, Fmt(best_s, 4), Fmt(point.edges_per_s, 0),
           Fmt(base_best / best_s, 2), Fmt(point.metrics.hit50),
           Fmt(point.metrics.mrr)});
      SUPA_LOG(INFO) << "fig7d: writers=" << point.label << " fit " << best_s
                     << "s (" << point.edges_per_s << " edges/s)";
      writer_points.push_back(std::move(point));
    }
  }
  writer_report.Print();

  // Hardware profile of the ingest pipeline stages (DESIGN.md §14): a
  // dedicated profiled loop at the representative writers=4 config,
  // kept out of the timing sweep above so fit_wall_s samples stay
  // comparable with unprofiled baselines. Each repeat is one Fit; the
  // per-repeat counter deltas become bench_compare sample arrays. On
  // PMU-less hosts the fallback ladder emits all-zero ratios under the
  // same keys ("perf.source" names the tier).
  constexpr const char* kIngestStages[] = {"ingest_plan", "ingest_execute",
                                           "ingest_commit"};
  constexpr size_t kNumIngestStages = 3;
  struct StagePerfSamples {
    std::vector<double> llc_miss_rate;
    std::vector<double> ipc;
    std::vector<double> cycles;
    uint64_t total_cycles = 0, total_instructions = 0;
    uint64_t total_llc_loads = 0, total_llc_misses = 0, total_scopes = 0;
  };
  StagePerfSamples stage_perf[kNumIngestStages];
  bool ingest_profiled = false;
  if (SectionEnabled("writers")) {
    ingest_profiled = true;
    obs::PerfProfiler::Global().Enable(true);
    for (size_t rep = 0; rep < shard_repeats; ++rep) {
      const obs::MetricsSnapshot perf_before =
          obs::MetricsRegistry::Global().Snapshot();
      SupaConfig model_config;
      model_config.dim = 64;
      model_config.shards = 8;
      InsLearnConfig train_config;
      train_config.batch_size = 4096;
      train_config.max_iters = std::max(1, static_cast<int>(8 * env.effort));
      train_config.valid_interval = 4;
      train_config.writer_threads = 4;
      SupaRecommender model(model_config, train_config);
      Status st = model.Fit(data, split.train);
      if (!st.ok()) {
        std::fprintf(stderr, "fit failed: %s\n", st.ToString().c_str());
        return 1;
      }
      const obs::MetricsSnapshot perf_after =
          obs::MetricsRegistry::Global().Snapshot();
      for (size_t i = 0; i < kNumIngestStages; ++i) {
        auto delta = [&](const char* slot) {
          const std::string name =
              std::string("perf.") + kIngestStages[i] + "." + slot;
          return perf_after.CounterValue(name) -
                 perf_before.CounterValue(name);
        };
        const uint64_t cycles = delta("cycles");
        const uint64_t instructions = delta("instructions");
        const uint64_t loads = delta("llc_loads");
        const uint64_t misses = delta("llc_misses");
        StagePerfSamples& s = stage_perf[i];
        s.llc_miss_rate.push_back(
            loads > 0 ? static_cast<double>(misses) / loads : 0.0);
        s.ipc.push_back(
            cycles > 0 ? static_cast<double>(instructions) / cycles : 0.0);
        s.cycles.push_back(static_cast<double>(cycles));
        s.total_cycles += cycles;
        s.total_instructions += instructions;
        s.total_llc_loads += loads;
        s.total_llc_misses += misses;
        s.total_scopes += delta("scopes");
      }
    }
    obs::PerfProfiler::Global().Enable(false);
  }

  // --json-out: the S_batch table (Report schema), the shard sweep with
  // the raw per-shard byte split, and a top-level "samples" object so
  // tools/bench_compare can Welch-test the per-shard-count Fit timings
  // (memory entries are single-sample: reported, never gated).
  const std::string json_path = JsonOutPath(argc, argv);
  if (!json_path.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("title", report.title());
    w.Key("header").BeginArray();
    for (const auto& cell : report.header()) w.String(cell);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : report.rows()) {
      w.BeginArray();
      for (const auto& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.Key("shard_sweep").BeginObject();
    w.Key("header").BeginArray();
    for (const auto& cell : shard_report.header()) w.String(cell);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : shard_report.rows()) {
      w.BeginArray();
      for (const auto& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.Key("per_shard_bytes").BeginObject();
    for (const ShardPoint& point : shard_points) {
      w.Key(std::to_string(point.shards)).BeginArray();
      for (uint64_t b : point.shard_bytes) {
        w.Uint(b);
      }
      w.EndArray();
    }
    w.EndObject();
    w.EndObject();
    w.Key("writer_sweep").BeginObject();
    w.Key("header").BeginArray();
    for (const auto& cell : writer_report.header()) w.String(cell);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : writer_report.rows()) {
      w.BeginArray();
      for (const auto& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    w.Key("samples").BeginObject();
    for (const ShardPoint& point : shard_points) {
      const std::string prefix = "shards" + std::to_string(point.shards);
      w.Key(prefix + "_fit_wall_s").BeginArray();
      for (double s : point.fit_samples) w.Double(s);
      w.EndArray();
      uint64_t max_bytes = 0;
      for (uint64_t b : point.shard_bytes) max_bytes = std::max(max_bytes, b);
      w.Key(prefix + "_max_shard_bytes").BeginArray();
      w.Double(static_cast<double>(max_bytes));
      w.EndArray();
    }
    for (const WriterPoint& point : writer_points) {
      w.Key("writers" + point.label + "_fit_wall_s").BeginArray();
      for (double s : point.fit_samples) w.Double(s);
      w.EndArray();
    }
    if (ingest_profiled) {
      for (size_t i = 0; i < kNumIngestStages; ++i) {
        const std::string prefix = kIngestStages[i];
        auto sample_array = [&w](const std::string& name,
                                 const std::vector<double>& xs) {
          w.Key(name).BeginArray();
          for (double x : xs) w.Double(x);
          w.EndArray();
        };
        sample_array(prefix + "_llc_miss_rate", stage_perf[i].llc_miss_rate);
        sample_array(prefix + "_ipc", stage_perf[i].ipc);
        sample_array(prefix + "_cycles", stage_perf[i].cycles);
      }
    }
    w.EndObject();
    if (ingest_profiled) {
      w.Key("perf").BeginObject();
      w.Field("source", std::string_view(obs::PerfSourceName(
                            obs::PerfProfiler::Global().source())));
      w.Field("profiled_repeats", static_cast<uint64_t>(shard_repeats));
      w.Key("stages").BeginObject();
      for (size_t i = 0; i < kNumIngestStages; ++i) {
        const StagePerfSamples& s = stage_perf[i];
        w.Key(kIngestStages[i]).BeginObject();
        w.Field("scopes", s.total_scopes);
        w.Field("cycles", s.total_cycles);
        w.Field("instructions", s.total_instructions);
        w.Field("llc_loads", s.total_llc_loads);
        w.Field("llc_misses", s.total_llc_misses);
        w.EndObject();
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndObject();
    std::string error;
    if (!obs::WriteTextFile(json_path, w.str(), &error)) {
      SUPA_LOG(ERROR) << "failed to write " << json_path << ": " << error;
    } else {
      std::printf("(wrote %s)\n", json_path.c_str());
    }
  }
  return 0;
}
