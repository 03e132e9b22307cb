// Shared driver for Tables V and VI: train every method on every paper
// dataset (80/1/19 temporal split), repeat across seeds, and evaluate the
// ranking metrics. SUPA rows are starred when a Welch t-test over the
// seeded repetitions shows p < 0.01 against the best baseline, matching
// the papers' significance marks.

#ifndef SUPA_BENCH_LINK_PREDICTION_GRID_H_
#define SUPA_BENCH_LINK_PREDICTION_GRID_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "data/synthetic.h"
#include "eval/protocols.h"
#include "util/stats.h"
#include "util/timer.h"

namespace supa::bench {

/// One (method, dataset) cell with per-seed metric samples.
struct GridCell {
  std::string method;
  std::string dataset;
  std::vector<double> hit20;
  std::vector<double> hit50;
  std::vector<double> ndcg10;
  std::vector<double> mrr;

  double MeanOf(const std::vector<double>& xs) const { return Mean(xs); }
};

/// All six paper dataset names in table order.
inline std::vector<std::string> PaperDatasetNames() {
  return {"UCI", "Amazon", "Last.fm", "MovieLens", "Taobao", "Kuaishou"};
}

/// Runs the full grid. Expensive; runtime scales with methods × datasets ×
/// env.seeds.
inline Result<std::vector<GridCell>> RunLinkPredictionGrid(
    const std::vector<std::string>& methods, const BenchEnv& env) {
  std::vector<GridCell> cells;
  for (const std::string& dataset_name : PaperDatasetNames()) {
    for (const std::string& method : methods) {
      GridCell cell;
      cell.method = method;
      cell.dataset = dataset_name;
      for (size_t seed = 0; seed < env.seeds; ++seed) {
        // The dataset is regenerated identically across methods for a
        // given seed, so comparisons are paired.
        SUPA_ASSIGN_OR_RETURN(
            Dataset data,
            MakePaperDataset(dataset_name, env.scale, 100 + seed));
        SUPA_ASSIGN_OR_RETURN(TemporalSplit split, SplitTemporal(data));

        RegistryOptions options;
        options.dim = 64;
        options.seed = 1000 + seed * 17;
        options.effort = env.effort;
        SUPA_ASSIGN_OR_RETURN(auto model, MakeRecommender(method, options));
        Timer timer;
        SUPA_RETURN_NOT_OK(model->Fit(data, split.train));

        EvalConfig eval;
        eval.max_test_edges = env.test_edges;
        eval.seed = 7 + seed;
        SUPA_ASSIGN_OR_RETURN(
            RankingResult r,
            EvaluateLinkPrediction(*model, data, split.test,
                                   EdgeRange{0, split.valid.end}, eval));
        cell.hit20.push_back(r.hit20);
        cell.hit50.push_back(r.hit50);
        cell.ndcg10.push_back(r.ndcg10);
        cell.mrr.push_back(r.mrr);
        SUPA_LOG(INFO) << dataset_name << " / " << method << " seed " << seed
                       << ": H@50=" << r.hit50 << " MRR=" << r.mrr << " ("
                       << Fmt(timer.ElapsedSeconds(), 1) << "s)";
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Extractor for one metric column of a cell.
using MetricFn = std::function<const std::vector<double>&(const GridCell&)>;

/// True when SUPA's samples beat the best baseline's samples on this
/// dataset at p < 0.01 (one-sided Welch). Requires >= 2 seeds.
inline bool SupaSignificantlyBest(const std::vector<GridCell>& cells,
                                  const std::string& dataset,
                                  const MetricFn& metric) {
  const GridCell* supa = nullptr;
  const GridCell* best_baseline = nullptr;
  for (const auto& cell : cells) {
    if (cell.dataset != dataset) continue;
    if (cell.method == "SUPA") {
      supa = &cell;
    } else if (best_baseline == nullptr ||
               Mean(metric(cell)) > Mean(metric(*best_baseline))) {
      best_baseline = &cell;
    }
  }
  if (supa == nullptr || best_baseline == nullptr) return false;
  if (metric(*supa).size() < 2) return false;
  auto test = WelchTTest(metric(*supa), metric(*best_baseline));
  return test.ok() && test.value().p_greater < 0.01;
}

/// "0.1234" or "0.1234*" for starred SUPA cells.
inline std::string MetricCell(const std::vector<GridCell>& cells,
                              const GridCell& cell, const MetricFn& metric,
                              bool maybe_star) {
  std::string text = Fmt(Mean(metric(cell)));
  if (maybe_star && cell.method == "SUPA" &&
      SupaSignificantlyBest(cells, cell.dataset, metric)) {
    text += "*";
  }
  return text;
}

}  // namespace supa::bench

#endif  // SUPA_BENCH_LINK_PREDICTION_GRID_H_
