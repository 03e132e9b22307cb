#include "eval/protocols.h"

#include <memory>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace supa {
namespace {

/// Shard count for parallel case ranking. Fixed (never derived from the
/// thread count) so shard boundaries, per-shard Rng streams, and the
/// shard-order reduction are identical whether 1 or N threads execute
/// them — the determinism contract of util/thread_pool.h.
constexpr size_t kEvalShards = 64;

/// Key for a (query, relation, candidate) positive.
uint64_t PositiveKey(const Dataset& data, NodeId u, EdgeTypeId r,
                     NodeId cand) {
  const uint64_t n = data.num_nodes();
  return (static_cast<uint64_t>(u) * data.schema.num_edge_types() + r) * n +
         cand;
}

/// Collects the seen positives of a range, keyed from both endpoints so
/// symmetric datasets (UCI, Amazon) are filtered in both directions.
std::unordered_set<uint64_t> CollectPositives(const Dataset& data,
                                              EdgeRange seen) {
  std::unordered_set<uint64_t> out;
  out.reserve((seen.size()) * 2 + 1);
  for (size_t i = seen.begin; i < seen.end; ++i) {
    const auto& e = data.edges[i];
    out.insert(PositiveKey(data, e.src, e.type, e.dst));
    out.insert(PositiveKey(data, e.dst, e.type, e.src));
  }
  return out;
}

}  // namespace

Result<RankingResult> EvaluateLinkPrediction(const Recommender& model,
                                             const Dataset& data,
                                             EdgeRange test, EdgeRange seen,
                                             const EvalConfig& config) {
  if (test.end > data.edges.size() || test.begin > test.end) {
    return Status::OutOfRange("bad test range");
  }
  const std::vector<NodeId> targets = data.TargetNodes();
  if (targets.empty()) {
    return Status::FailedPrecondition("dataset has no target-type nodes");
  }
  const std::unordered_set<uint64_t> positives =
      config.exclude_seen_positives
          ? CollectPositives(data, seen)
          : std::unordered_set<uint64_t>{};

  // Select the evaluated test edges (target relations only).
  std::vector<size_t> cases;
  for (size_t i = test.begin; i < test.end; ++i) {
    if (data.IsTargetRelation(data.edges[i].type)) cases.push_back(i);
  }
  Rng rng(config.seed);
  if (config.max_test_edges > 0 && cases.size() > config.max_test_edges) {
    rng.Shuffle(cases);
    cases.resize(config.max_test_edges);
  }

  // Rank each case against the candidate pool, sharded for parallelism.
  // Shard s owns the contiguous case block [s*n/S, (s+1)*n/S), seeds its
  // candidate-sampling Rng from SplitMix64At(seed, s), and accumulates
  // into its own slot; the slots are reduced in shard order below.
  SUPA_TRACE_SPAN_CAT("eval/rank_cases", "eval");
  const size_t num_shards = std::min(cases.size(), kEvalShards);
  std::vector<MetricAccumulator> shard_acc(num_shards);
  ParallelFor(config.threads, num_shards, [&](size_t shard) {
    SUPA_PHASE(kEvalShard);
    Rng shard_rng(SplitMix64At(config.seed, shard));
    MetricAccumulator& acc = shard_acc[shard];
    std::vector<NodeId> sampled_candidates;
    const size_t case_begin = shard * cases.size() / num_shards;
    const size_t case_end = (shard + 1) * cases.size() / num_shards;
    for (size_t c = case_begin; c < case_end; ++c) {
      const auto& e = data.edges[cases[c]];
      // Orient the case so the ranked side is the target type.
      NodeId query = e.src;
      NodeId truth = e.dst;
      if (data.node_types[truth] != data.target_type) {
        std::swap(query, truth);
        if (data.node_types[truth] != data.target_type) continue;
      }
      const double gt_score = model.Score(query, truth, e.type);

      const std::vector<NodeId>* pool = &targets;
      if (config.candidate_cap > 0 && targets.size() > config.candidate_cap) {
        sampled_candidates.clear();
        for (size_t k = 0; k < config.candidate_cap; ++k) {
          sampled_candidates.push_back(targets[shard_rng.Index(targets.size())]);
        }
        pool = &sampled_candidates;
      }

      size_t better = 0;
      size_t ties = 0;
      for (NodeId cand : *pool) {
        if (cand == truth || cand == query) continue;
        if (config.exclude_seen_positives &&
            positives.contains(PositiveKey(data, query, e.type, cand))) {
          continue;
        }
        const double s = model.Score(query, cand, e.type);
        if (s > gt_score) {
          ++better;
        } else if (s == gt_score) {
          ++ties;
        }
        // NaN scores compare false on both branches and rank below the
        // ground truth, so a degenerate scorer cannot fake a perfect rank.
      }
      // Expected rank under random tie-breaking.
      acc.Add(better + 1 + ties / 2);
    }
  });
  const MetricAccumulator acc = ReduceShards(shard_acc);
  {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("eval.link_prediction_runs").Increment();
    reg.GetCounter("eval.cases_ranked").Increment(acc.count());
    reg.GetCounter("eval.shards_run").Increment(num_shards);
  }

  RankingResult out;
  out.hit20 = acc.hit20();
  out.hit50 = acc.hit50();
  out.ndcg10 = acc.ndcg10();
  out.mrr = acc.mrr();
  out.evaluated = acc.count();
  return out;
}

Result<std::vector<DynamicStepResult>> RunDynamicProtocol(
    Recommender& model, const Dataset& data, size_t parts,
    const EvalConfig& config) {
  SUPA_ASSIGN_OR_RETURN(std::vector<EdgeRange> ranges,
                        SplitKParts(data, parts));
  SUPA_TRACE_SPAN_CAT("eval/dynamic_protocol", "eval");
  std::vector<DynamicStepResult> out;
  out.reserve(parts - 1);
  for (size_t i = 0; i + 1 < parts; ++i) {
    SUPA_TRACE_SPAN_CAT("eval/dynamic_step", "eval");
    DynamicStepResult step;
    Timer train_timer;
    if (i == 0 || !model.incremental()) {
      SUPA_RETURN_NOT_OK(model.Fit(data, ranges[i]));
    } else {
      SUPA_RETURN_NOT_OK(model.FitIncremental(data, ranges[i]));
    }
    step.train_seconds = train_timer.ElapsedSeconds();

    Timer eval_timer;
    // Positives seen so far = everything up to and including part i.
    EdgeRange seen{0, ranges[i].end};
    SUPA_ASSIGN_OR_RETURN(
        RankingResult r,
        EvaluateLinkPrediction(model, data, ranges[i + 1], seen, config));
    step.eval_seconds = eval_timer.ElapsedSeconds();
    step.hit50 = r.hit50;
    step.mrr = r.mrr;
    out.push_back(step);
  }
  return out;
}

Result<std::vector<RankingResult>> RunDisturbanceProtocol(
    const std::function<std::unique_ptr<Recommender>()>& factory,
    const Dataset& data, const std::vector<size_t>& etas,
    const EvalConfig& config) {
  SUPA_ASSIGN_OR_RETURN(TemporalSplit split, SplitTemporal(data));
  SUPA_TRACE_SPAN_CAT("eval/disturbance_protocol", "eval");
  // Each η setting trains and evaluates an independent model, so the η
  // sweep itself is the parallel axis (one shard per η); the factory runs
  // serially up front because callers only promise per-instance isolation.
  std::vector<std::unique_ptr<Recommender>> models;
  models.reserve(etas.size());
  for (size_t eta : etas) {
    models.push_back(factory());
    models.back()->set_neighbor_cap(eta);
  }
  std::vector<Status> statuses(etas.size(), Status::OK());
  std::vector<RankingResult> results(etas.size());
  ParallelFor(config.threads, etas.size(), [&](size_t i) {
    Status st = models[i]->Fit(data, split.train);
    if (!st.ok()) {
      statuses[i] = std::move(st);
      return;
    }
    EdgeRange seen{0, split.valid.end};
    auto r =
        EvaluateLinkPrediction(*models[i], data, split.test, seen, config);
    if (!r.ok()) {
      statuses[i] = r.status();
      return;
    }
    results[i] = r.value();
  });
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return results;
}

}  // namespace supa
