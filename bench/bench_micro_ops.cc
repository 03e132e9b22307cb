// google-benchmark micro-op suite for SUPA's hot paths: per-edge training,
// influenced-graph sampling, scoring, graph appends, and the sparse
// optimizer — the operations whose costs compose the O((kl + N_neg)·|E|)
// training complexity of §III-F.2.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "dur/chain_reader.h"
#include "dur/checkpoint.h"
#include "dur/delta_writer.h"
#include "dur/wal.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/simd.h"

namespace supa {
namespace {

const Dataset& BenchData() {
  static const Dataset data = MakeTaobao(0.5, 77).value();
  return data;
}

SupaConfig BenchConfig(int dim = 64) {
  SupaConfig c;
  c.dim = dim;
  c.num_walks = 4;
  c.walk_len = 3;
  c.num_neg = 5;
  return c;
}

std::unique_ptr<SupaModel> WarmModel(const SupaConfig& config,
                                     size_t warm_edges) {
  const Dataset& data = BenchData();
  auto model = std::make_unique<SupaModel>(data, config);
  for (size_t i = 0; i < warm_edges && i < data.edges.size(); ++i) {
    (void)model->ObserveEdge(data.edges[i]);
  }
  return model;
}

void BM_TrainEdge(benchmark::State& state) {
  const Dataset& data = BenchData();
  SupaConfig config = BenchConfig(static_cast<int>(state.range(0)));
  auto model = WarmModel(config, 5000);
  size_t i = 5000;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    benchmark::DoNotOptimize(model->TrainEdge(e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainEdge)->Arg(32)->Arg(64)->Arg(128);

void BM_InfluencedGraphSampling(benchmark::State& state) {
  const Dataset& data = BenchData();
  SupaConfig config = BenchConfig();
  config.num_walks = static_cast<int>(state.range(0));
  auto model = WarmModel(config, 5000);
  InfluencedGraphSampler sampler(model->graph(),
                                 data.schema.num_node_types(), data.metapaths,
                                 config.num_walks, config.walk_len);
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    benchmark::DoNotOptimize(sampler.Sample(e.src, e.dst, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InfluencedGraphSampling)->Arg(1)->Arg(4)->Arg(16);

void BM_Score(benchmark::State& state) {
  auto model = WarmModel(BenchConfig(), 5000);
  const Dataset& data = BenchData();
  Rng rng(2);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.Index(data.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.Index(data.num_nodes()));
    benchmark::DoNotOptimize(model->Score(u, v, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Score);

void BM_ObserveEdge(benchmark::State& state) {
  const Dataset& data = BenchData();
  std::unique_ptr<SupaModel> model;
  size_t i = 0;
  for (auto _ : state) {
    if (i == 0 || i >= data.edges.size()) {
      state.PauseTiming();
      model = std::make_unique<SupaModel>(data, BenchConfig());
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(model->ObserveEdge(data.edges[i++]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObserveEdge);

void BM_AdamStepRows(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  std::vector<float> params(rows * dim, 0.1f);
  SparseAdam adam(params.size(), 3e-3, 1e-4);
  GradBuffer grads;
  std::vector<float> grad_row(dim, 0.01f);
  for (auto _ : state) {
    grads.Clear();
    for (size_t r = 0; r < rows; ++r) {
      grads.Accumulate(r * dim, dim, 1.0, grad_row.data());
    }
    adam.Step(grads, params.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AdamStepRows)->Arg(4)->Arg(16)->Arg(64);

// ---- SIMD kernels: dispatched (avx2 where available) vs portable ---------

std::vector<float> KernelVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

void BM_SimdDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = KernelVec(n, 1), b = KernelVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::BackendName());
}
BENCHMARK(BM_SimdDot)->Arg(32)->Arg(64)->Arg(128);

void BM_PortableDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = KernelVec(n, 1), b = KernelVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::portable::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PortableDot)->Arg(32)->Arg(64)->Arg(128);

void BM_SimdAxpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = KernelVec(n, 3);
  auto y = KernelVec(n, 4);
  for (auto _ : state) {
    simd::Axpy(0.37, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::BackendName());
}
BENCHMARK(BM_SimdAxpy)->Arg(32)->Arg(64)->Arg(128);

void BM_PortableAxpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = KernelVec(n, 3);
  auto y = KernelVec(n, 4);
  for (auto _ : state) {
    simd::portable::Axpy(0.37, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PortableAxpy)->Arg(32)->Arg(64)->Arg(128);

void BM_SimdScoreDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto al = KernelVec(n, 5), as = KernelVec(n, 6), ac = KernelVec(n, 7),
             bl = KernelVec(n, 8), bs = KernelVec(n, 9), bc = KernelVec(n, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::ScoreDot(al.data(), as.data(), ac.data(),
                                            bl.data(), bs.data(), bc.data(),
                                            1.0, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::BackendName());
}
BENCHMARK(BM_SimdScoreDot)->Arg(32)->Arg(64)->Arg(128);

// The serving engine's per-item kernels at d = 64, one item per iteration
// (so the time per iteration is ns per item): HDot scores an item from its
// cached h_v row, HDotRefresh rebuilds a stale h_v from the item's three
// float rows while scoring it. h_u is built once, as per request.
template <bool kPortable, bool kRefresh>
void HDotBench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto al = KernelVec(n, 5), as = KernelVec(n, 6), ac = KernelVec(n, 7),
             bl = KernelVec(n, 8), bs = KernelVec(n, 9), bc = KernelVec(n, 10);
  std::vector<double> hu(n), hv(n);
  simd::portable::HRow(al.data(), as.data(), ac.data(), 1.0, hu.data(), n);
  simd::portable::HRow(bl.data(), bs.data(), bc.data(), 1.0, hv.data(), n);
  for (auto _ : state) {
    double score;
    if (kRefresh) {
      score = kPortable ? simd::portable::HDotRefresh(hu.data(), bl.data(),
                                                      bs.data(), bc.data(),
                                                      1.0, hv.data(), n)
                        : simd::HDotRefresh(hu.data(), bl.data(), bs.data(),
                                            bc.data(), 1.0, hv.data(), n);
    } else {
      score = kPortable ? simd::portable::HDot(hu.data(), hv.data(), n)
                        : simd::HDot(hu.data(), hv.data(), n);
    }
    benchmark::DoNotOptimize(score);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  if (!kPortable) state.SetLabel(simd::BackendName());
}

void BM_SimdHDot(benchmark::State& state) { HDotBench<false, false>(state); }
BENCHMARK(BM_SimdHDot)->Arg(64);

void BM_PortableHDot(benchmark::State& state) {
  HDotBench<true, false>(state);
}
BENCHMARK(BM_PortableHDot)->Arg(64);

void BM_SimdHDotRefresh(benchmark::State& state) {
  HDotBench<false, true>(state);
}
BENCHMARK(BM_SimdHDotRefresh)->Arg(64);

void BM_PortableHDotRefresh(benchmark::State& state) {
  HDotBench<true, true>(state);
}
BENCHMARK(BM_PortableHDotRefresh)->Arg(64);

// One AdamW row step on a 64-float embedding row or a 1-float α row,
// repeated on the same row as consecutive training steps would.
template <bool kPortable>
void AdamRowBench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto g = KernelVec(n, 11);
  auto params = KernelVec(n, 12);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  const simd::AdamCoeffs c{0.9, 0.999, 1e-8, 3e-3, 1e-4, 0.1, 0.001};
  for (auto _ : state) {
    if (kPortable) {
      simd::portable::AdamRow(c, g.data(), params.data(), m.data(), v.data(),
                              n);
    } else {
      simd::AdamRow(c, g.data(), params.data(), m.data(), v.data(), n);
    }
    benchmark::DoNotOptimize(params.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  if (!kPortable) state.SetLabel(simd::BackendName());
}

void BM_SimdAdamRow(benchmark::State& state) { AdamRowBench<false>(state); }
BENCHMARK(BM_SimdAdamRow)->Arg(64)->Arg(1);

void BM_PortableAdamRow(benchmark::State& state) { AdamRowBench<true>(state); }
BENCHMARK(BM_PortableAdamRow)->Arg(64)->Arg(1);

// ---- GradBuffer: flat open-addressing table under training-like load -----

void BM_GradBufferAccumulate(benchmark::State& state) {
  // One training step's shape: `rows` distinct rows, each accumulated
  // twice (influenced node + negative duplicate), then cleared.
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  GradBuffer grads;
  std::vector<float> grad_row(dim, 0.01f);
  for (auto _ : state) {
    grads.Clear();
    for (size_t r = 0; r < rows; ++r) {
      grads.Accumulate(r * dim * 3, dim, 1.0, grad_row.data());
    }
    for (size_t r = 0; r < rows; ++r) {
      grads.Accumulate(r * dim * 3, dim, -0.5, grad_row.data());
    }
    benchmark::DoNotOptimize(grads.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_GradBufferAccumulate)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// ---- Influenced-graph sampling: per-Walk heap vectors vs flat arena ------

void BM_InfluencedGraphSamplingArena(benchmark::State& state) {
  const Dataset& data = BenchData();
  SupaConfig config = BenchConfig();
  config.num_walks = static_cast<int>(state.range(0));
  auto model = WarmModel(config, 5000);
  InfluencedGraphSampler sampler(model->graph(),
                                 data.schema.num_node_types(), data.metapaths,
                                 config.num_walks, config.walk_len);
  Rng rng(1);
  WalkBuffer arena;
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    size_t u_count = 0;
    sampler.SampleInto(e.src, e.dst, rng, &arena, &u_count);
    benchmark::DoNotOptimize(arena.num_steps());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InfluencedGraphSamplingArena)->Arg(1)->Arg(4)->Arg(16);

// ---- Snapshots: full-buffer copy vs the Φ_best undo log ------------------

std::unique_ptr<SupaModel> TrainedModel(size_t train_edges) {
  const Dataset& data = BenchData();
  auto model = std::make_unique<SupaModel>(data, BenchConfig());
  for (size_t i = 0; i < train_edges && i < data.edges.size(); ++i) {
    (void)model->TrainEdge(data.edges[i]);
    (void)model->ObserveEdge(data.edges[i]);
  }
  return model;
}

/// Dirties a validation-interval's worth of rows between snapshots.
void TrainBurst(SupaModel& model, size_t begin, size_t count) {
  const Dataset& data = BenchData();
  for (size_t i = begin; i < begin + count && i < data.edges.size(); ++i) {
    (void)model.TrainEdge(data.edges[i]);
  }
}

void BM_TakeFullSnapshot(benchmark::State& state) {
  auto model = TrainedModel(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->TakeSnapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TakeFullSnapshot);

void BM_TakeBest(benchmark::State& state) {
  auto model = TrainedModel(2000);
  size_t i = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    TrainBurst(*model, 2000 + (i++ % 2000), 32);
    state.ResumeTiming();
    model->TakeBest();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TakeBest);

void BM_RestoreFullSnapshot(benchmark::State& state) {
  auto model = TrainedModel(2000);
  const SupaModel::Snapshot snap = model->TakeSnapshot();
  size_t i = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    TrainBurst(*model, 2000 + (i++ % 2000), 32);
    state.ResumeTiming();
    model->RestoreSnapshot(snap);
    benchmark::DoNotOptimize(model->embeddings().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestoreFullSnapshot);

void BM_RestoreBest(benchmark::State& state) {
  // The rollback writes back the rows the burst wrote since the take.
  auto model = TrainedModel(2000);
  size_t i = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    model->TakeBest();
    TrainBurst(*model, 2000 + (i++ % 2000), 32);
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->RestoreBest());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestoreBest);

// ---- Observability overhead ----------------------------------------------
//
// BM_TrainEdge above runs with tracing runtime-disabled, so comparing it
// against the instrumentation-free seed (or an SUPA_OBS_TRACING=OFF build)
// bounds the disabled-path cost; the acceptance budget is < 2% per edge.
// The benches below price the primitives themselves.

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter c =
      obs::MetricsRegistry::Global().GetCounter("bench.obs_counter");
  for (auto _ : state) {
    c.Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram h = obs::MetricsRegistry::Global().GetHistogram(
      "bench.obs_hist", obs::MetricsRegistry::ExponentialBounds(1.0, 4.0, 10));
  double v = 0.0;
  for (auto _ : state) {
    h.Observe(v);
    v = v < 1e6 ? v * 1.1 + 1.0 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Enable(false);
  for (auto _ : state) {
    SUPA_TRACE_SPAN("bench_span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Enable(true);
  for (auto _ : state) {
    SUPA_TRACE_SPAN("bench_span");
    benchmark::ClobberMemory();
  }
  obs::TraceRecorder::Global().Enable(false);
  obs::TraceRecorder::Global().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_TrainEdgeTraced(benchmark::State& state) {
  // BM_TrainEdge's dim-64 workload with tracing runtime-ENABLED; the gap
  // to BM_TrainEdge/64 is the full per-edge recording cost (6 spans).
  const Dataset& data = BenchData();
  auto model = WarmModel(BenchConfig(64), 5000);
  obs::TraceRecorder::Global().Enable(true);
  size_t i = 5000;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    benchmark::DoNotOptimize(model->TrainEdge(e));
  }
  obs::TraceRecorder::Global().Enable(false);
  obs::TraceRecorder::Global().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainEdgeTraced);

void BM_ObsPerfScopeDisabled(benchmark::State& state) {
  // Prices the disabled hot path of SUPA_PERF_SCOPE: one relaxed atomic
  // load per scope. The acceptance budget is <= 0.1% per TrainEdge, which
  // at 8 scopes/edge means this must stay in the ~1ns range.
  obs::PerfProfiler::Global().Enable(false);
  for (auto _ : state) {
    SUPA_PERF_SCOPE(kTrainEdge);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsPerfScopeDisabled);

void BM_ObsPerfScopeEnabled(benchmark::State& state) {
  // Enabled cost: two counter-group reads plus the registry increments.
  // On a PMU-less host this prices the active fallback tier instead; the
  // tier is whatever PerfProfiler detection picked.
  obs::PerfProfiler::Global().Enable(true);
  for (auto _ : state) {
    SUPA_PERF_SCOPE(kTrainEdge);
    benchmark::ClobberMemory();
  }
  obs::PerfProfiler::Global().Enable(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsPerfScopeEnabled);

void BM_TrainEdgeProfiled(benchmark::State& state) {
  // BM_TrainEdge's dim-64 workload with hardware profiling ENABLED; the
  // gap to BM_TrainEdge/64 is the full per-edge profiling cost (8 scopes).
  const Dataset& data = BenchData();
  auto model = WarmModel(BenchConfig(64), 5000);
  obs::PerfProfiler::Global().Enable(true);
  size_t i = 5000;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    benchmark::DoNotOptimize(model->TrainEdge(e));
  }
  obs::PerfProfiler::Global().Enable(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainEdgeProfiled);

void BM_ObsModelMonitorDisabled(benchmark::State& state) {
  // Prices the disabled hot path of the model monitor: the one relaxed
  // `enabled()` load TrainEdge/ObserveEdge/ScoreRequest use as their
  // guard. Must stay in the ~1ns range — a disabled monitor is free.
  obs::ModelMonitor::Global().Enable(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::ModelMonitor::Global().enabled());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsModelMonitorDisabled);

void BM_TrainEdgeMonitored(benchmark::State& state) {
  // BM_TrainEdge's dim-64 workload with the model monitor ENABLED; the
  // gap to BM_TrainEdge/64 is the full per-edge recording cost (gradient
  // L2 reduction + StepStats accumulation + one mutexed sketch insert).
  const Dataset& data = BenchData();
  auto model = WarmModel(BenchConfig(64), 5000);
  obs::ModelMonitor::Global().Enable(true);
  size_t i = 5000;
  for (auto _ : state) {
    const auto& e = data.edges[5000 + (i++ % 4000)];
    benchmark::DoNotOptimize(model->TrainEdge(e));
  }
  obs::ModelMonitor::Global().Enable(false);
  obs::ModelMonitor::Global().Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainEdgeMonitored);

// ---- Durability: WAL appends and the delta checkpoint chain --------------

void BM_WalAppend(benchmark::State& state) {
  // arg 0 = WalSync::kOff (buffered), 1 = kEvery (fdatasync per record).
  namespace fs = std::filesystem;
  const Dataset& data = BenchData();
  const std::string dir = "bench_wal_append.tmp";
  std::error_code ec;
  fs::remove_all(dir, ec);
  dur::WalOptions wo;
  wo.sync = state.range(0) == 0 ? dur::WalSync::kOff : dur::WalSync::kEvery;
  auto writer = dur::WalWriter::Open(dir, wo, 0).value();
  dur::WalRecord rec;
  size_t i = 0;
  for (auto _ : state) {
    rec.edge = data.edges[i++ % data.edges.size()];
    benchmark::DoNotOptimize(writer->Append(rec));
  }
  (void)writer->Close();
  fs::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "sync=off" : "sync=every");
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1);

void BM_DeltaCaptureDirtyRows(benchmark::State& state) {
  // Capture cost must scale with the burst size (dirty rows), not with
  // the model's total parameter count — the O(dirty) claim of §16.
  auto model = TrainedModel(2000);
  model->optimizer().set_checkpoint_tracking(true);
  const size_t burst = static_cast<size_t>(state.range(0));
  size_t i = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    model->optimizer().ClearCheckpointDirty();
    TrainBurst(*model, 2000 + (i++ % 2000), burst);
    state.ResumeTiming();
    benchmark::DoNotOptimize(dur::CaptureDirtyRows(*model));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaCaptureDirtyRows)->Arg(8)->Arg(64)->Arg(256);

void BM_DeltaFileWrite(benchmark::State& state) {
  namespace fs = std::filesystem;
  auto model = TrainedModel(2000);
  model->optimizer().set_checkpoint_tracking(true);
  model->optimizer().ClearCheckpointDirty();
  TrainBurst(*model, 2000, 64);
  const dur::DeltaCapture delta = dur::CaptureDirtyRows(*model).value();
  const std::string path = "bench_delta_write.tmp";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dur::WriteDeltaFile(path, delta));
  }
  std::error_code ec;
  fs::remove(path, ec);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaFileWrite);

/// Writes a base of `model`'s state and `chain_len` deltas of 64-edge
/// bursts into `dir`; returns the delta paths, oldest first.
std::vector<std::string> WriteBenchChain(SupaModel& model,
                                         const std::string& dir,
                                         size_t chain_len) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  model.optimizer().set_checkpoint_tracking(true);
  (void)dur::WriteBaseFile(dir + "/base", dur::GatherLogicalState(model));
  std::vector<std::string> files;
  for (size_t d = 0; d < chain_len; ++d) {
    model.optimizer().ClearCheckpointDirty();
    TrainBurst(model, 2000 + d * 97, 64);
    files.push_back(dir + "/d" + std::to_string(d));
    (void)dur::WriteDeltaFile(files.back(),
                              dur::CaptureDirtyRows(model).value());
  }
  return files;
}

void BM_DeltaChainCompact(benchmark::State& state) {
  // The engine's compaction: stream a base plus `chain_len` deltas from
  // disk into a fresh base file (fsynced), through two 1 MiB buffers.
  namespace fs = std::filesystem;
  const std::string dir = "bench_chain_compact.tmp";
  auto model = TrainedModel(2000);
  const size_t chain_len = static_cast<size_t>(state.range(0));
  const std::vector<std::string> files =
      WriteBenchChain(*model, dir, chain_len);
  for (auto _ : state) {
    auto chain = dur::ChainReader::Open(dir + "/base", files);
    benchmark::DoNotOptimize(
        dur::WriteChainAsBase(chain.value(), dir + "/compacted"));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations() * chain_len);
}
BENCHMARK(BM_DeltaChainCompact)->Arg(2)->Arg(8);

void BM_DeltaChainRestore(benchmark::State& state) {
  // Recovery's checkpoint half: open a base plus `chain_len` deltas,
  // stream them once to check every CRC, then again into a fresh model.
  namespace fs = std::filesystem;
  const std::string dir = "bench_chain_restore.tmp";
  auto model = TrainedModel(2000);
  const size_t chain_len = static_cast<size_t>(state.range(0));
  const std::vector<std::string> files =
      WriteBenchChain(*model, dir, chain_len);
  SupaModel target(BenchData(), BenchConfig());
  for (auto _ : state) {
    auto chain = dur::ChainReader::Open(dir + "/base", files);
    (void)dur::VerifyChainFor(chain.value(), target);
    benchmark::DoNotOptimize(dur::LoadChainInto(chain.value(), &target));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaChainRestore)->Arg(2)->Arg(8);

void BM_Crc32c(benchmark::State& state) {
  // arg 0 = the dispatched backend (three-way SSE4.2 where available),
  // 1 = the portable slicing-by-8 reference. 1 MiB, the chain reader's
  // buffer size.
  std::vector<uint8_t> buf(1u << 20);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const bool portable = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(portable
                                 ? Crc32cPortable(buf.data(), buf.size())
                                 : Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel(portable ? "portable" : Crc32cBackendName());
}
BENCHMARK(BM_Crc32c)->Arg(0)->Arg(1);

void BM_InsLearnBatch(benchmark::State& state) {
  const Dataset& data = BenchData();
  InsLearnConfig tc;
  tc.batch_size = static_cast<size_t>(state.range(0));
  tc.max_iters = 2;
  tc.valid_interval = 1;
  tc.valid_size = 50;
  for (auto _ : state) {
    state.PauseTiming();
    SupaModel model(data, BenchConfig());
    InsLearnTrainer trainer(tc);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        trainer.Train(model, data, EdgeRange{0, tc.batch_size}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsLearnBatch)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace supa

BENCHMARK_MAIN();
