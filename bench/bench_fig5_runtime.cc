// Reproduces Figure 5: total running time (train + evaluate, summed over
// the 9 dynamic-link-prediction steps of Figure 4) per method on
// MovieLens. The paper's claim is the *ordering*: SUPA trains a stream
// faster than retrain-from-scratch baselines of comparable quality.
//
// A second table breaks one SUPA InsLearn run over the whole stream into
// its phases; both tables land in BENCH_fig5.json. Repeated timing of the
// pipeline is perfbench's job (perfbench/README.md), per-operation costs
// are bench_micro_ops', and the evaluation thread sweep is Figure 7b's.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "baselines/registry.h"
#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "eval/protocols.h"
#include "obs/json_writer.h"
#include "util/simd.h"
#include "util/timer.h"

namespace {

struct MethodRuntime {
  std::string method;
  double train_s = 0.0;
  double eval_s = 0.0;
};

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

  SupaConfig mc;
  mc.dim = 64;
  SupaModel model(data, mc);
  InsLearnConfig tc;
  tc.threads = env.threads;
  tc.valid_interval = 2;  // snapshot-heavy: validate every 2 iterations
  InsLearnTrainer trainer(tc);
  const size_t n_edges = data.edges.size();
  Timer timer;
  auto trained = trainer.Train(model, data, EdgeRange{0, n_edges});
  const double wall_s = timer.ElapsedSeconds();
  if (!trained.ok()) {
    std::fprintf(stderr, "inslearn failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const InsLearnReport& run = trained.value();
  const double edges_per_sec =
      wall_s > 0.0 ? static_cast<double>(n_edges) / wall_s : 0.0;
  const double steps_per_sec =
      run.train_seconds > 0.0
          ? static_cast<double>(run.train_steps) / run.train_seconds
          : 0.0;

  Report phases("SUPA InsLearn per-phase runtime");
  phases.SetHeader({"wall_s", "train_s", "valid_s", "snapshot_s",
                    "observe_s", "edges/s"});
  phases.AddRow({Fmt(wall_s, 2), Fmt(run.train_seconds, 2),
                 Fmt(run.valid_seconds, 2), Fmt(run.snapshot_seconds, 4),
                 Fmt(run.observe_seconds, 2), Fmt(edges_per_sec, 0)});
  phases.Print();

  obs::JsonWriter w;
  w.BeginObject();
  w.Field("dataset", std::string_view("MovieLens"));
  w.Field("scale", env.scale);
  w.Field("simd_backend", std::string_view(simd::BackendName()));
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
  w.Field("train_steps", static_cast<uint64_t>(run.train_steps));
  w.Field("wall_s", wall_s);
  w.Field("edges_per_sec", edges_per_sec);
  w.Field("train_steps_per_sec", steps_per_sec);
  w.Key("phases").BeginObject();
  w.Field("train_s", run.train_seconds);
  w.Field("valid_s", run.valid_seconds);
  w.Field("snapshot_s", run.snapshot_seconds);
  w.Field("observe_s", run.observe_seconds);
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
  return 0;
}
