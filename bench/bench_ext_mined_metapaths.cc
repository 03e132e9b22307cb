// Extension experiment (beyond the paper): automatic metapath mining (the
// paper's §VI future work). Compares SUPA trained with (a) the
// hand-written Table-IV schema set, (b) schemas mined from the observed
// stream prefix, and (c) a deliberately impoverished single-schema set —
// on the two multiplex datasets. The claim to check: mined ≈ hand-written
// ≫ impoverished.

#include "bench/bench_common.h"
#include "baselines/recommender.h"
#include "data/synthetic.h"
#include "eval/protocols.h"
#include "graph/metapath_miner.h"

namespace {

using namespace supa;
using namespace supa::bench;

Result<RankingResult> RunWith(Dataset data,
                              std::vector<MetapathSchema> metapaths,
                              const BenchEnv& env) {
  data.metapaths = std::move(metapaths);
  SUPA_ASSIGN_OR_RETURN(TemporalSplit split, SplitTemporal(data));
  SupaConfig model_config;
  model_config.dim = 64;
  InsLearnConfig train_config;
  train_config.max_iters = std::max(1, static_cast<int>(8 * env.effort));
  train_config.valid_interval = 4;
  SupaRecommender supa(model_config, train_config);
  SUPA_RETURN_NOT_OK(supa.Fit(data, split.train));
  EvalConfig eval;
  eval.max_test_edges = env.test_edges;
  return EvaluateLinkPrediction(supa, data, split.test,
                                EdgeRange{0, split.valid.end}, eval);
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env;
  Report report(
      "Extension — automatic metapath mining vs hand-written schemas");
  report.SetHeader({"Dataset", "schema set", "#schemas", "H@50", "MRR"});

  for (const char* ds : {"Taobao", "Kuaishou"}) {
    auto data_or = MakePaperDataset(ds, env.scale, 100);
    if (!data_or.ok()) {
      std::fprintf(stderr, "dataset %s failed\n", ds);
      return 1;
    }
    const Dataset& data = data_or.value();

    // (a) hand-written (Table IV).
    auto hand = RunWith(data, data.metapaths, env);

    // (b) mined from the first 30% of the stream.
    auto graph = data.BuildGraphRange(0, data.num_edges() * 3 / 10);
    MinerConfig miner;
    miner.num_walks = 8000;
    miner.skeleton_support = 0.005;
    auto mined_schemas = MineMetapaths(*graph.value(), miner);
    Result<RankingResult> mined =
        mined_schemas.ok()
            ? RunWith(data, mined_schemas.value(), env)
            : Result<RankingResult>(mined_schemas.status());

    // (c) impoverished: only the first hand-written schema.
    auto poor = RunWith(
        data, std::vector<MetapathSchema>{data.metapaths.front()}, env);

    auto add = [&](const char* label, size_t count,
                   const Result<RankingResult>& r) {
      if (r.ok()) {
        report.AddRow({ds, label, std::to_string(count),
                       Fmt(r.value().hit50), Fmt(r.value().mrr)});
      } else {
        report.AddRow({ds, label, std::to_string(count), "error", "error"});
      }
    };
    add("hand-written", data.metapaths.size(), hand);
    add("mined", mined_schemas.ok() ? mined_schemas.value().size() : 0,
        mined);
    add("single-schema", 1, poor);
    SUPA_LOG(INFO) << "ext_metapaths: finished " << ds;
  }

  report.Print();
  report.MaybeWriteTsv(OutPath(argc, argv));
  report.MaybeWriteJson(JsonOutPath(argc, argv));
  return 0;
}
