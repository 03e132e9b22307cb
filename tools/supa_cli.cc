// supa_cli — command-line driver for the library.
//
//   supa_cli generate  --dataset taobao --scale 1 --seed 7 --out edges.tsv
//   supa_cli train     --dataset taobao --checkpoint model.bin [--dim 64]
//                      [--iters 16] [--scale 1] [--seed 7] [--threads N]
//   supa_cli serve     --dataset taobao --checkpoint model.bin
//                      --admin-port 0 [--duration-s 30] [--serve-workers 2]
//   supa_cli eval      --dataset taobao --checkpoint model.bin [--threads N]
//   supa_cli recommend --dataset taobao --checkpoint model.bin --user 3
//                      --relation Buy [--k 10]
//   supa_cli mine      --dataset kuaishou [--scale 1]
//
// `--dataset` names one of the bundled paper-dataset emulators; the same
// (--dataset, --scale, --seed) triple regenerates the identical stream, so
// train/eval/recommend compose across invocations via the checkpoint.
// `--threads` sets the evaluation/validation worker count (0 = all cores,
// the default); results are bit-identical at every setting.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "baselines/recommender.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/engine.h"
#include "dur/recovery.h"
#include "eval/export.h"
#include "eval/predictor.h"
#include "eval/protocols.h"
#include "graph/metapath_miner.h"
#include "obs/admin_server.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "util/tsv.h"

namespace supa {
namespace {

struct Args {
  std::string command;
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

/// Every flag some command reads. ParseArgs rejects any other name, so a
/// mistyped or retired flag fails instead of being silently ignored.
constexpr const char* kKnownFlags[] = {
    "admin-port",    "checkpoint",     "ckpt-interval", "compact-threshold",
    "dataset",       "dim",            "duration-s",    "heartbeat",
    "iters",         "k",              "metrics-out",   "model-out",
    "model-seed",    "out",            "perf-out",      "relation",
    "scale",         "seed",           "serve",         "serve-batch",
    "serve-linger",  "serve-queue",    "serve-workers", "shards",
    "test-edges",    "threads",        "trace-out",     "user",
    "wal-dir",       "wal-sync",       "walks",         "writer-threads",
};

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Status::InvalidArgument(std::string("expected flag, got ") +
                                     argv[i]);
    }
    const std::string name = argv[i] + 2;
    if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags), name) ==
        std::end(kKnownFlags)) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return Status::InvalidArgument("flag --" + name + " has no value");
    }
    args.flags[name] = argv[i + 1];
  }
  return args;
}

Result<Dataset> LoadDataset(const Args& args) {
  return MakePaperDataset(args.Get("dataset", "taobao"),
                          args.GetDouble("scale", 1.0),
                          args.GetUint("seed", 7));
}

SupaConfig ModelConfig(const Args& args) {
  SupaConfig c;
  c.dim = static_cast<int>(args.GetUint("dim", 64));
  c.seed = args.GetUint("model-seed", 42);
  // 0 defers to SUPA_SHARDS, then 1. Placement only — results are
  // bit-identical at every shard count.
  c.shards = static_cast<size_t>(args.GetUint("shards", 0));
  return c;
}

int CmdGenerate(const Args& args) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.Get("out", "edges.tsv");
  if (Status st = SaveEdgesTsv(data.value(), out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu nodes, %zu edges -> %s\n", data.value().name.c_str(),
              data.value().num_nodes(), data.value().num_edges(),
              out.c_str());
  return 0;
}

/// Spins up a ServeEngine over `model` and exposes POST/GET /recommend on
/// the admin server (when one is running). Shared by `train --serve` and
/// the `serve` command.
std::unique_ptr<serve::ServeEngine> StartServing(const Args& args,
                                                 const SupaModel* model,
                                                 const Dataset& data,
                                                 obs::AdminServer* admin,
                                                 size_t workers) {
  serve::ServeOptions options;
  options.workers = workers;
  options.max_batch = static_cast<size_t>(args.GetUint("serve-batch", 8));
  options.max_queue = static_cast<size_t>(args.GetUint("serve-queue", 1024));
  options.default_k = static_cast<size_t>(args.GetUint("k", 10));
  auto engine = std::make_unique<serve::ServeEngine>(model, &data, options);
  engine->Start();
  if (admin != nullptr) {
    serve::RegisterRecommendRoutes(admin, engine.get(), &data);
    serve::ServeEngine* raw = engine.get();
    admin->AddReadinessProbe("serve", [raw] { return raw->running(); });
  }
  std::fprintf(stderr, "serving /recommend with %zu workers (%zu candidates)\n",
               options.workers, engine->candidates().size());
  return engine;
}

/// Shared by train and recover so a recovered run trains under exactly
/// the configuration the crashed run used.
InsLearnConfig TrainerConfig(const Args& args) {
  InsLearnConfig tc;
  tc.max_iters = static_cast<int>(args.GetUint("iters", 16));
  tc.valid_interval = 4;
  tc.threads = static_cast<size_t>(args.GetUint("threads", 0));
  tc.heartbeat_seconds = args.GetDouble("heartbeat", 0.0);
  // <= 1 is the serial loop; more writers train through the ingest
  // pipeline, whose bytes are the same at every writer count but differ
  // from the serial loop's (DESIGN.md §13).
  tc.writer_threads = static_cast<size_t>(args.GetUint("writer-threads", 1));
  tc.ckpt_interval = static_cast<size_t>(args.GetUint("ckpt-interval", 1));
  return tc;
}

/// Attaches a DurabilityEngine when --wal-dir is set; returns null (OK)
/// otherwise.
Result<std::unique_ptr<dur::DurabilityEngine>> MaybeAttachDurability(
    const Args& args, SupaModel& model) {
  const std::string wal_dir = args.Get("wal-dir", "");
  if (wal_dir.empty()) return std::unique_ptr<dur::DurabilityEngine>();
  dur::DurabilityOptions options;
  options.dir = wal_dir;
  if (!dur::ParseWalSync(args.Get("wal-sync", "batch"), &options.wal_sync)) {
    return Status::InvalidArgument("unknown --wal-sync mode '" +
                                   args.Get("wal-sync", "") +
                                   "' (every|batch|off)");
  }
  options.compact_threshold =
      static_cast<size_t>(args.GetUint("compact-threshold", 8));
  return dur::DurabilityEngine::Attach(model, options);
}

int CmdTrain(const Args& args, obs::AdminServer* admin) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  SupaModel model(data.value(), ModelConfig(args));

  // --serve N scores /recommend on N workers *while training runs* —
  // serving reads epoch snapshots only, so the checkpoint bytes below are
  // bit-identical with serving on or off (CI pins this).
  std::unique_ptr<serve::ServeEngine> engine;
  const size_t serve_workers = static_cast<size_t>(args.GetUint("serve", 0));
  if (serve_workers > 0) {
    engine = StartServing(args, &model, data.value(), admin, serve_workers);
  }

  InsLearnConfig tc = TrainerConfig(args);
  auto durability = MaybeAttachDurability(args, model);
  if (!durability.ok()) {
    std::fprintf(stderr, "%s\n", durability.status().ToString().c_str());
    return 1;
  }
  tc.checkpoint_sink = durability.value().get();

  InsLearnTrainer trainer(tc);
  auto report = trainer.Train(model, data.value(), split.train);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (durability.value() != nullptr) {
    // Every enqueued link must be durable before the run is declared done.
    if (Status st = durability.value()->Flush(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::string ckpt = args.Get("checkpoint", "supa_model.bin");
  if (Status st = SaveCheckpoint(model, ckpt); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("trained %zu edges in %zu batches (%zu steps) -> %s\n",
              split.train.size(), report.value().num_batches,
              report.value().train_steps, ckpt.c_str());
  if (engine != nullptr) {
    // --serve-linger keeps the engine (and admin endpoints) up after
    // training so an external load generator can finish its measurement.
    const double linger_s = args.GetDouble("serve-linger", 0.0);
    if (linger_s > 0.0) {
      std::fprintf(stderr, "serving for another %.1fs\n", linger_s);
      std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
    }
    engine->Stop();
    std::fprintf(stderr, "served %llu requests (%llu rejected)\n",
                 static_cast<unsigned long long>(engine->requests_served()),
                 static_cast<unsigned long long>(engine->requests_rejected()));
  }
  return 0;
}

/// `recover`: rebuild a killed `train --wal-dir` run from its durability
/// directory and finish it. Must be invoked with the same
/// --dataset/--scale/--seed, model flags, and trainer flags as the
/// crashed run; the checkpoint it writes is bit-identical to the one the
/// uninterrupted run would have written (CI's crash-recovery smoke pins
/// this with cmp).
int CmdRecover(const Args& args) {
  const std::string wal_dir = args.Get("wal-dir", "");
  if (wal_dir.empty()) {
    std::fprintf(stderr, "recover requires --wal-dir\n");
    return 2;
  }
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  SupaModel model(data.value(), ModelConfig(args));

  auto recovered = dur::Recover(wal_dir, &model);
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
    return 1;
  }
  const dur::RecoveryReport& rec = recovered.value();
  std::fprintf(stderr,
               "recovered %s: %llu checkpoint links, %llu WAL records "
               "replayed%s in %.3fs (verify %.3fs, load %.3fs, replay "
               "%.3fs)\n",
               wal_dir.c_str(),
               static_cast<unsigned long long>(rec.links_applied),
               static_cast<unsigned long long>(rec.wal_records_replayed),
               rec.used_fallback_link ? " (fallback link)" : "", rec.seconds,
               rec.verify_seconds, rec.load_seconds, rec.replay_seconds);

  InsLearnConfig tc = TrainerConfig(args);
  auto durability = MaybeAttachDurability(args, model);
  if (!durability.ok()) {
    std::fprintf(stderr, "%s\n", durability.status().ToString().c_str());
    return 1;
  }
  tc.checkpoint_sink = durability.value().get();

  InsLearnTrainer trainer(tc);
  auto report = trainer.Train(model, data.value(), split.train,
                              &rec.cursor);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (Status st = durability.value()->Flush(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const std::string ckpt = args.Get("checkpoint", "supa_model.bin");
  if (Status st = SaveCheckpoint(model, ckpt); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("resumed training finished %zu batches -> %s\n",
              report.value().num_batches, ckpt.c_str());
  return 0;
}

/// Rebuilds the model state needed for scoring: checkpoint params + the
/// training-prefix graph.
Result<std::unique_ptr<SupaModel>> RestoreModel(const Args& args,
                                                const Dataset& data,
                                                EdgeRange observed) {
  auto model = std::make_unique<SupaModel>(data, ModelConfig(args));
  for (size_t i = observed.begin; i < observed.end; ++i) {
    SUPA_RETURN_NOT_OK(model->ObserveEdge(data.edges[i]));
  }
  SUPA_RETURN_NOT_OK(
      LoadCheckpoint(args.Get("checkpoint", "supa_model.bin"), model.get()));
  return model;
}

/// `serve`: restore a checkpoint and serve /recommend until --duration-s
/// elapses. Requires --admin-port (the engine is only reachable over
/// HTTP in this mode).
int CmdServe(const Args& args, obs::AdminServer* admin) {
  if (admin == nullptr) {
    std::fprintf(stderr, "serve requires --admin-port\n");
    return 2;
  }
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  auto model = RestoreModel(args, data.value(), split.train);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  auto engine =
      StartServing(args, model.value().get(), data.value(), admin,
                   static_cast<size_t>(args.GetUint("serve-workers", 2)));
  const double duration_s = args.GetDouble("duration-s", 30.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  engine->Stop();
  std::printf("served %llu requests (%llu rejected) in %.1fs\n",
              static_cast<unsigned long long>(engine->requests_served()),
              static_cast<unsigned long long>(engine->requests_rejected()),
              duration_s);
  return 0;
}

int CmdEval(const Args& args) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  auto model = RestoreModel(args, data.value(), split.train);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  // Wrap for the protocol. Scoring goes through an epoch snapshot so the
  // protocol's worker threads never touch the live store.
  class Wrapper : public Recommender {
   public:
    explicit Wrapper(SupaModel* m) : m_(m), snap_(m->AcquireSnapshot()) {}
    std::string name() const override { return "SUPA"; }
    Status Fit(const Dataset&, EdgeRange) override { return Status::OK(); }
    double Score(NodeId u, NodeId v, EdgeTypeId r) const override {
      return m_->ScoreOn(*snap_, u, v, r);
    }

   private:
    SupaModel* m_;
    std::shared_ptr<const store::StoreSnapshot> snap_;
  } wrapper(model.value().get());

  EvalConfig eval;
  eval.max_test_edges = args.GetUint("test-edges", 500);
  eval.threads = static_cast<size_t>(args.GetUint("threads", 0));
  auto r = EvaluateLinkPrediction(wrapper, data.value(), split.test,
                                  EdgeRange{0, split.valid.end}, eval);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("H@20 %.4f | H@50 %.4f | NDCG@10 %.4f | MRR %.4f (%zu cases)\n",
              r.value().hit20, r.value().hit50, r.value().ndcg10,
              r.value().mrr, r.value().evaluated);
  return 0;
}

int CmdRecommend(const Args& args) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  auto model = RestoreModel(args, data.value(), split.train);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const NodeId user = static_cast<NodeId>(args.GetUint("user", 0));
  auto relation =
      data.value().schema.EdgeType(args.Get("relation", ""));
  const EdgeTypeId rel =
      relation.ok() ? relation.value() : data.value().target_relations[0];

  class Wrapper : public Recommender {
   public:
    explicit Wrapper(SupaModel* m) : m_(m), snap_(m->AcquireSnapshot()) {}
    std::string name() const override { return "SUPA"; }
    Status Fit(const Dataset&, EdgeRange) override { return Status::OK(); }
    double Score(NodeId u, NodeId v, EdgeTypeId r) const override {
      return m_->ScoreOn(*snap_, u, v, r);
    }

   private:
    SupaModel* m_;
    std::shared_ptr<const store::StoreSnapshot> snap_;
  } wrapper(model.value().get());

  TopKOptions options;
  options.k = args.GetUint("k", 10);
  options.seen = split.train;
  auto top = RecommendTopK(wrapper, data.value(), user, rel, options);
  if (!top.ok()) {
    std::fprintf(stderr, "%s\n", top.status().ToString().c_str());
    return 1;
  }
  std::printf("top-%zu %s recommendations for node %u:\n", options.k,
              data.value().schema.EdgeTypeName(rel).c_str(), user);
  for (const auto& item : top.value()) {
    std::printf("  node %u  score %.4f\n", item.item, item.score);
  }
  return 0;
}

int CmdExport(const Args& args) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto split = SplitTemporal(data.value()).value();
  auto model = RestoreModel(args, data.value(), split.train);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  class Wrapper : public Recommender {
   public:
    explicit Wrapper(SupaModel* m, int dim)
        : m_(m), dim_(dim), snap_(m->AcquireSnapshot()) {}
    std::string name() const override { return "SUPA"; }
    Status Fit(const Dataset&, EdgeRange) override { return Status::OK(); }
    double Score(NodeId u, NodeId v, EdgeTypeId r) const override {
      return m_->ScoreOn(*snap_, u, v, r);
    }
    Result<std::vector<float>> Embedding(NodeId v,
                                         EdgeTypeId r) const override {
      std::vector<float> out(static_cast<size_t>(dim_));
      m_->FinalEmbeddingOn(*snap_, v, r, out.data());
      return out;
    }

   private:
    SupaModel* m_;
    int dim_;
    std::shared_ptr<const store::StoreSnapshot> snap_;
  } wrapper(model.value().get(),
            static_cast<int>(args.GetUint("dim", 64)));

  auto relation =
      data.value().schema.EdgeType(args.Get("relation", ""));
  ExportOptions options;
  options.relation =
      relation.ok() ? relation.value() : data.value().target_relations[0];
  const std::string out = args.Get("out", "embeddings.tsv");
  if (Status st = ExportEmbeddings(wrapper, data.value(), out, options);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("exported %zu node embeddings (relation %s) -> %s\n",
              data.value().num_nodes(),
              data.value().schema.EdgeTypeName(options.relation).c_str(),
              out.c_str());
  return 0;
}

int CmdMine(const Args& args) {
  auto data = LoadDataset(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto graph = data.value().BuildGraphRange(0, data.value().num_edges());
  MinerConfig miner;
  miner.num_walks = args.GetUint("walks", 8000);
  miner.skeleton_support = 0.005;
  auto mined = MineMetapaths(*graph.value(), miner);
  if (!mined.ok()) {
    std::fprintf(stderr, "%s\n", mined.status().ToString().c_str());
    return 1;
  }
  std::printf("mined %zu schemas from %s:\n", mined.value().size(),
              data.value().name.c_str());
  for (const auto& mp : mined.value()) {
    std::printf("  %s\n", mp.ToString(data.value().schema).c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: supa_cli "
               "<generate|train|recover|serve|eval|recommend|mine|export> "
               "[--flag value]...\n"
               "durability (train/recover):\n"
               "  --wal-dir <dir>       write-ahead-log every graph "
               "mutation and take incremental checkpoints into <dir>; a "
               "killed run restarts bit-identically via `recover`\n"
               "  --wal-sync <mode>     every (fdatasync per record), "
               "batch (per durable cut; default), off\n"
               "  --ckpt-interval <n>   batches between durable cuts "
               "(default 1)\n"
               "  --compact-threshold <n>  deltas tolerated before the "
               "chain is folded into a fresh base (default 8)\n"
               "  recover --wal-dir D   rebuild the crashed run's state, "
               "resume, and finish training (same flags as train)\n"
               "serving:\n"
               "  train --serve <n>     score POST /recommend on n workers "
               "while training runs (results and checkpoint bytes stay "
               "bit-identical); --serve-linger <secs> keeps serving after "
               "training\n"
               "  serve --checkpoint C --admin-port P [--duration-s S]\n"
               "                        serve a restored checkpoint "
               "(static) for S seconds\n"
               "  --serve-batch/--serve-queue/--k tune the engine\n"
               "storage (train/eval/recommend/export):\n"
               "  --shards <n>          shard the storage engine across n "
               "banks (0 = SUPA_SHARDS env, then 1; results and checkpoint "
               "bytes are bit-identical at every value)\n"
               "ingest (train/recover):\n"
               "  --writer-threads <n>  1 (default) trains serially; n > 1 "
               "samples and computes gradients on n writer threads. "
               "Deterministic and independent of n, but a different byte "
               "stream from the serial run\n"
               "observability (any command):\n"
               "  --metrics-out <path>  write a metrics-registry JSON "
               "snapshot on exit (and print the table)\n"
               "  --trace-out <path>    record trace spans and write Chrome "
               "trace JSON on exit\n"
               "  --perf-out <path>     profile hardware counters "
               "(perf_event_open, with software/rusage fallback) and write "
               "the per-domain profile JSON on exit; also live at "
               "/profilez\n"
               "  --model-out <path>    monitor model & data-quality "
               "signals (loss/gradient/stream sketches, drift detectors) "
               "and write the report JSON on exit; also live at /modelz\n"
               "  --heartbeat <secs>    train: log a throughput line every "
               "~<secs> seconds\n"
               "  --admin-port <port>   serve /metrics /healthz /statusz "
               "/tracez /profilez /modelz on 127.0.0.1 while the command "
               "runs (0 = ephemeral port; env: SUPA_ADMIN_PORT)\n");
  return 2;
}

int Dispatch(const std::string& cmd, const Args& args,
             obs::AdminServer* admin) {
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "train") return CmdTrain(args, admin);
  if (cmd == "recover") return CmdRecover(args);
  if (cmd == "serve") return CmdServe(args, admin);
  if (cmd == "eval") return CmdEval(args);
  if (cmd == "recommend") return CmdRecommend(args);
  if (cmd == "mine") return CmdMine(args);
  if (cmd == "export") return CmdExport(args);
  return Usage();
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return Usage();
  }

  const std::string metrics_out = args.value().Get("metrics-out", "");
  const std::string trace_out = args.value().Get("trace-out", "");
  const std::string perf_out = args.value().Get("perf-out", "");
  const std::string model_out = args.value().Get("model-out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Global().Enable(true);
  if (!perf_out.empty()) obs::PerfProfiler::Global().Enable(true);
  if (!model_out.empty()) obs::ModelMonitor::Global().Enable(true);

  // --admin-port (or SUPA_ADMIN_PORT) serves the live telemetry endpoints
  // for the lifetime of the command. The bound port goes to stderr so
  // scripts can parse it when asking for an ephemeral port (0).
  std::unique_ptr<obs::AdminServer> admin;
  std::string admin_port = args.value().Get("admin-port", "");
  if (admin_port.empty()) {
    if (const char* env = std::getenv("SUPA_ADMIN_PORT")) admin_port = env;
  }
  if (!admin_port.empty()) {
    auto port = ParseUint(admin_port);
    if (!port.ok() || port.value() > 65535) {
      std::fprintf(stderr, "bad admin port: %s\n", admin_port.c_str());
      return 2;
    }
    obs::AdminServerOptions options;
    options.port = static_cast<uint16_t>(port.value());
    admin = std::make_unique<obs::AdminServer>(options);
    std::string error;
    if (!admin->Start(&error)) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   error.c_str());
      return 2;
    }
    std::fprintf(stderr, "admin server listening on http://127.0.0.1:%u\n",
                 admin->port());
  }

  const int rc = Dispatch(args.value().command, args.value(), admin.get());
  if (admin != nullptr) admin->Stop();

  // Observability exports are written even when the command failed — a
  // partial run's metrics are exactly what one wants when diagnosing it.
  if (!trace_out.empty()) {
    obs::TraceRecorder::Global().Enable(false);
    std::string error;
    if (!obs::TraceRecorder::Global().WriteJson(trace_out, &error)) {
      std::fprintf(stderr, "failed to write trace: %s\n", error.c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "trace (%zu spans) -> %s\n",
                 obs::TraceRecorder::Global().recorded_events(),
                 trace_out.c_str());
  }
  if (!perf_out.empty()) {
    obs::PerfProfiler::Global().Enable(false);
    std::string error;
    if (!obs::WritePerfJson(obs::MetricsRegistry::Global(), perf_out,
                            &error)) {
      std::fprintf(stderr, "failed to write perf profile: %s\n",
                   error.c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "perf profile (source=%s) -> %s\n",
                 obs::PerfSourceName(obs::PerfProfiler::Global().source()),
                 perf_out.c_str());
  }
  if (!model_out.empty()) {
    obs::ModelMonitor::Global().Enable(false);
    std::string error;
    if (!obs::WriteModelJson(model_out, &error)) {
      std::fprintf(stderr, "failed to write model report: %s\n",
                   error.c_str());
      return rc == 0 ? 1 : rc;
    }
    const obs::ModelMonitorSnapshot model =
        obs::ModelMonitor::Global().Snapshot();
    std::fprintf(stderr,
                 "model report (%llu train steps, alert level %s) -> %s\n",
                 static_cast<unsigned long long>(model.train_steps),
                 obs::AlertLevelName(model.worst_level), model_out.c_str());
  }
  if (!metrics_out.empty()) {
    const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
    std::fputs(snapshot.ToTable().c_str(), stdout);
    std::string error;
    if (!obs::WriteTextFile(metrics_out, snapshot.ToJson(), &error)) {
      std::fprintf(stderr, "failed to write metrics: %s\n", error.c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "metrics -> %s\n", metrics_out.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace supa

int main(int argc, char** argv) { return supa::Main(argc, argv); }
