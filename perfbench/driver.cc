// End-to-end benchmark driver: trains and serves GraphAug / LightGCN on
// seeded synthetic graphs and prints one JSON result line. See README.md
// for the workloads, metrics and the per-layer predictions.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <path>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer split, timed from outside by wrapping calls into each layer's
// public functions.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "augment/registry.h"
#include "bench/bench_common.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/graphaug.h"
#include "core/mixhop_encoder.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/propagation.h"
#include "models/registry.h"
#include "obs/autograd_profiler.h"
#include "obs/config.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "retrieval/mips_index.h"
#include "tensor/init.h"
#include "tensor/ops.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace graphaug::perfbench {
namespace {

// ----------------------------------------------------------- settings

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
/// Recall@20 is read once this many timed epochs have run (after the
/// warm-up epoch), so it is deterministic no matter how many rounds fit in
/// the time budget; by then training is past its steep early climb.
constexpr int kRecallEpochs = 12;
/// Evaluation and refresh repeat within a round until they have taken
/// this long, so the cheap ones on the small graph get enough samples.
constexpr double kMinPhaseSeconds = 0.1;
constexpr int kTopK = 20;
/// Users per serving request, as in the dense evaluator's batches.
constexpr int64_t kRequestUsers = 128;
/// Serving requests per round at least (all users are served several times
/// over), and per run: serving starts in the round that reads recall20 and
/// stops once this many requests have been made. The work of a served list
/// changes as the model trains (on graphaug-gowalla it falls by 4x within
/// ten epochs, then rises slowly), so serving a fixed few rounds past the
/// steep early epochs serves the same model states in every run, however
/// many rounds fit in the time budget. 2000 requests leave 20 beyond p99.
constexpr int64_t kMinRequestsPerRound = 512;
constexpr int64_t kServedRequests = 2000;
/// serve-refresh pretrains until the index scores under this share of the
/// items. Pruning sets in within a few epochs and levels off near 1% of
/// the items, so at 5% the serving regime no longer drifts during a run.
constexpr double kPruneScoredFrac = 0.05;
constexpr int kMaxPretrainEpochs = 60;
/// Repeats of each kernel probe per traced iteration.
constexpr int kProbeReps = 3;
constexpr int kParallelForDispatches = 200;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

struct Workload {
  const char* name;
  bool graphaug;  ///< GraphAug with the gib augmentor; LightGCN otherwise
  int32_t users;  ///< 0 keeps the gowalla-sim preset size
  int32_t items;
  bool pretrain_until_prune;
  /// Training epochs per round of evaluate, refresh and serve.
  int epochs_per_round;
};

// graphaug-gowalla: small graph, per-op overhead and the augmentor
// dominate an epoch. lightgcn-large: ~10x the graph, SpMM kernels
// dominate, no augmentor; several epochs per round keep training the bulk
// of the run. serve-refresh: the same graph trained until the MIPS index
// prunes, then one writer epoch per round of refresh and serving.
constexpr Workload kWorkloads[] = {
    {"graphaug-gowalla", true, 0, 0, false, 1},
    {"lightgcn-large", false, 9000, 10000, false, 4},
    {"serve-refresh", false, 9000, 10000, true, 1},
};

/// The workload seed drives the order in which users are served (and the
/// inputs of the traced run's kernel probes). The graph and the model's
/// own seed are part of the workload, as a benchmark on a real dataset
/// reads the same file and trains the same configuration every run: with
/// the graph or the initialisation drawn from the workload seed, the
/// pruning work per served list varied by 15-40% between seeds, far more
/// than the run-to-run spread the bounds are set against.
uint64_t ServeOrderSeed(uint64_t seed) { return seed ^ 0x5e7e0bd3ULL; }

SyntheticConfig DataConfig(const Workload& w) {
  SyntheticConfig cfg = PresetConfig("gowalla-sim");
  if (w.users > 0) {
    cfg.name = w.name;
    cfg.num_users = w.users;
    cfg.num_items = w.items;
  }
  return cfg;
}

GraphAugConfig MakeGaConfig() {
  return bench::MakeGraphAugConfig(bench::BenchSettings::Default(),
                                   /*seed=*/0, "gowalla-sim");
}

ModelConfig MakeLgConfig() { return bench::BenchSettings::Default().model; }

int BatchesPerEpoch(const Recommender& model) {
  const ModelConfig& c = model.config();
  if (c.batches_per_epoch > 0) return c.batches_per_epoch;
  return static_cast<int>((model.graph().num_edges() + c.batch_size - 1) /
                          c.batch_size);
}

// ------------------------------------------------------------ accounting

/// Attempts and failures: training batches (failed when the loss is not
/// finite) and served top-20 lists (failed when they differ from the
/// dense oracle).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t nonfinite_batches = 0;
  int64_t wrong_lists = 0;
};

/// Counts an epoch's batches. TrainEpoch returns the mean batch loss, which
/// is non-finite when any batch loss is, so a non-finite mean fails every
/// batch of the epoch (an upper bound on the failed batches).
void CountEpoch(double mean_loss, int batches, Tally* t) {
  t->attempted += batches;
  if (!std::isfinite(mean_loss)) {
    t->failed += batches;
    t->nonfinite_batches += batches;
  }
}

// ----------------------------------------------------------------- state

struct State {
  SyntheticData data;
  std::unique_ptr<Recommender> model;
  std::unique_ptr<Evaluator> evaluator;
  retrieval::MipsIndex index;
  /// Evaluable users in the seeded order requests are served in.
  std::vector<int32_t> serve_order;
  int pretrain_epochs = 0;
};

Evaluator::ScoreFn Scorer(const Recommender& model) {
  return [&model](const std::vector<int32_t>& users) {
    return model.ScoreUsers(users);
  };
}

retrieval::Retriever::ExcludeFn TrainItemsOf(const BipartiteGraph& graph,
                                             const std::vector<int32_t>& rows) {
  return [&graph, &rows](int64_t qi) -> const std::vector<int32_t>& {
    return graph.ItemsOf(rows[static_cast<size_t>(qi)]);
  };
}

struct PruneStats {
  double items_scored_frac = 0;
  double clusters_pruned_frac = 0;
};

/// Useful-work ratios of one retrieval pass over `users`, read from the
/// library's retrieval.* counters (recorded only while obs is enabled, so
/// this pass is never timed).
PruneStats MeasurePruning(const retrieval::MipsIndex& index,
                          const Recommender& model,
                          const std::vector<int32_t>& users) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter* queries = reg.GetCounter("retrieval.queries");
  obs::Counter* scored = reg.GetCounter("retrieval.items_scored");
  obs::Counter* cpruned = reg.GetCounter("retrieval.clusters_pruned");
  const int64_t q0 = queries->value();
  const int64_t s0 = scored->value();
  const int64_t c0 = cpruned->value();
  const Matrix q = GatherRows(model.user_embeddings(), users);
  std::vector<retrieval::TopKList> lists;
  obs::SetEnabled(true);
  index.RetrieveBatch(q, kTopK, TrainItemsOf(model.graph(), users), &lists);
  obs::SetEnabled(false);
  const double nq = static_cast<double>(queries->value() - q0);
  PruneStats p;
  p.items_scored_frac = static_cast<double>(scored->value() - s0) /
                        (nq * static_cast<double>(index.num_items()));
  p.clusters_pruned_frac = static_cast<double>(cpruned->value() - c0) /
                           (nq * static_cast<double>(index.num_clusters()));
  return p;
}

/// Trains until the index built on the finalized item table scores fewer
/// than kPruneScoredFrac of the items; returns the epochs trained.
int PretrainUntilPrune(State* st) {
  Recommender& model = *st->model;
  const std::vector<int32_t>& users = st->evaluator->evaluable_users();
  for (int epoch = 1; epoch <= kMaxPretrainEpochs; ++epoch) {
    model.TrainEpoch();
    model.DecayLearningRate();
    model.Finalize();
    const retrieval::MipsIndex index =
        retrieval::MipsIndex::Build(model.item_embeddings());
    if (MeasurePruning(index, model, users).items_scored_frac <
        kPruneScoredFrac) {
      return epoch;
    }
  }
  return kMaxPretrainEpochs;
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> generate_s;
};

/// Input generation, construction and warm-up (one epoch, one dense
/// evaluation, one index build: the first of each is several times slower
/// than the rest).
std::unique_ptr<State> Setup(const Workload& w, uint64_t seed,
                             SetupTimes* times) {
  Stopwatch total;
  auto st = std::make_unique<State>();
  Stopwatch gen;
  st->data = GenerateSynthetic(DataConfig(w));
  times->generate_s.push_back(gen.ElapsedSeconds());
  const Dataset* ds = &st->data.dataset;
  if (w.graphaug) {
    st->model = std::make_unique<GraphAug>(ds, MakeGaConfig());
  } else {
    st->model = CreateModel("LightGCN", ds, MakeLgConfig());
  }
  st->evaluator = std::make_unique<Evaluator>(ds, std::vector<int>{kTopK});
  st->serve_order = st->evaluator->evaluable_users();
  Rng order_rng(ServeOrderSeed(seed));
  for (size_t i = st->serve_order.size(); i > 1; --i) {
    std::swap(st->serve_order[i - 1],
              st->serve_order[order_rng.UniformInt(i)]);
  }
  if (w.pretrain_until_prune) {
    st->pretrain_epochs = PretrainUntilPrune(st.get());
  }
  st->model->TrainEpoch();
  st->model->DecayLearningRate();
  st->model->Finalize();
  st->evaluator->Evaluate(Scorer(*st->model));
  st->index = retrieval::MipsIndex::Build(st->model->item_embeddings());
  times->total_s.push_back(total.ElapsedSeconds());
  return st;
}

std::unique_ptr<State> RepeatedSetup(const Workload& w, uint64_t seed,
                                     SetupTimes* times) {
  std::unique_ptr<State> st;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();  // free the previous copy before building the next
    st = Setup(w, seed, times);
  }
  return st;
}

// --------------------------------------------------------------- serving

/// Dense-oracle top-k lists (training items excluded, ties by ascending
/// item id), compared with the served lists; returns the mismatch count.
int64_t CountWrongLists(const Recommender& model,
                        const std::vector<int32_t>& users,
                        const std::vector<retrieval::TopKList>& served) {
  const int64_t n = static_cast<int64_t>(users.size());
  const int64_t chunks = (n + kRequestUsers - 1) / kRequestUsers;
  std::vector<int64_t> wrong(static_cast<size_t>(chunks), 0);
  const int32_t num_items = model.dataset().num_items;
  ParallelFor(0, n, kRequestUsers, [&](int64_t begin, int64_t end) {
    const std::vector<int32_t> chunk(users.begin() + begin,
                                     users.begin() + end);
    Matrix scores = model.ScoreUsers(chunk);
    std::vector<int32_t> order;
    order.reserve(static_cast<size_t>(num_items));
    for (size_t i = 0; i < chunk.size(); ++i) {
      const std::vector<int32_t>& train = model.graph().ItemsOf(chunk[i]);
      const float* row = scores.row(static_cast<int64_t>(i));
      order.clear();
      for (int32_t v = 0; v < num_items; ++v) {
        if (!std::binary_search(train.begin(), train.end(), v)) {
          order.push_back(v);
        }
      }
      const size_t depth = std::min<size_t>(kTopK, order.size());
      std::partial_sort(order.begin(), order.begin() + depth, order.end(),
                        [row](int32_t a, int32_t b) {
                          return row[a] != row[b] ? row[a] > row[b] : a < b;
                        });
      order.resize(depth);
      if (served[static_cast<size_t>(begin) + i].items != order) {
        ++wrong[static_cast<size_t>(begin / kRequestUsers)];
      }
    }
  });
  return std::accumulate(wrong.begin(), wrong.end(), int64_t{0});
}

struct ServeSamples {
  std::vector<double> request_ms;
  /// Lists served per second of request time, one entry per pass over all
  /// users; the median pass is reported, so that a burst of scheduling
  /// delays on the shared host moves it less than a total would move.
  std::vector<double> pass_users_per_s;
  int rounds = 0;
};

/// One closed-loop client serving every evaluable user's top-20 list in
/// requests of kRequestUsers users, `passes` times over. The first pass is
/// checked against the dense oracle, later passes against the first.
void ServeRound(const State& st, int passes, ServeSamples* out, Tally* t) {
  const Recommender& model = *st.model;
  const std::vector<int32_t>& users = st.serve_order;
  const int64_t n = static_cast<int64_t>(users.size());
  std::vector<retrieval::TopKList> first(static_cast<size_t>(n));
  std::vector<retrieval::TopKList> lists;
  for (int pass = 0; pass < passes; ++pass) {
    double busy_s = 0;
    for (int64_t b = 0; b < n; b += kRequestUsers) {
      const int64_t e = std::min(n, b + kRequestUsers);
      const std::vector<int32_t> chunk(users.begin() + b, users.begin() + e);
      Stopwatch sw;
      const Matrix q = GatherRows(model.user_embeddings(), chunk);
      st.index.RetrieveBatch(q, kTopK, TrainItemsOf(model.graph(), chunk),
                             &lists);
      const double s = sw.ElapsedSeconds();
      out->request_ms.push_back(s * 1e3);
      busy_s += s;
      t->attempted += e - b;
      for (int64_t i = b; i < e; ++i) {
        retrieval::TopKList& got = lists[static_cast<size_t>(i - b)];
        if (pass == 0) {
          first[static_cast<size_t>(i)] = std::move(got);
        } else if (got.items != first[static_cast<size_t>(i)].items) {
          ++t->failed;
          ++t->wrong_lists;
        }
      }
    }
    out->pass_users_per_s.push_back(static_cast<double>(n) / busy_s);
  }
  ++out->rounds;
  const int64_t wrong = CountWrongLists(model, users, first);
  t->failed += wrong;
  t->wrong_lists += wrong;
}

int ServePasses(const State& st) {
  const int64_t per_pass =
      (static_cast<int64_t>(st.serve_order.size()) + kRequestUsers - 1) /
      kRequestUsers;
  return static_cast<int>(
      std::max<int64_t>(1, (kMinRequestsPerRound + per_pass - 1) / per_pass));
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintProvenance(const Options& o, int threads) {
  const bench::BenchEnv env = bench::GetBenchEnv();
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "threads=%d simd=%s git_sha=%s build_type=%s timestamp=%s\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, env.hardware_concurrency, threads,
      SimdLevelName(ActiveSimdLevel()), env.git_sha.c_str(),
      PERFBENCH_BUILD_TYPE, env.timestamp_utc.c_str());
}

void PrintResult(bool correct, const Tally& t,
                 const std::vector<Metric>& metrics) {
  const double failed_frac =
      t.attempted > 0 ? static_cast<double>(t.failed) / t.attempted : 1.0;
  std::printf("failed_frac %.6g fraction (failed=%lld attempted=%lld: "
              "%lld non-finite batches, %lld wrong lists)\n",
              failed_frac, static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.nonfinite_batches),
              static_cast<long long>(t.wrong_lists));
  if (t.failed > 0) {
    std::printf("FAIL %lld of %lld attempts failed\n",
                static_cast<long long>(t.failed),
                static_cast<long long>(t.attempted));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ------------------------------------------------------ end-to-end run

int RunEndToEnd(const Workload& w, const Options& o) {
  SetupTimes setup;
  std::unique_ptr<State> st = RepeatedSetup(w, o.seed, &setup);
  Recommender& model = *st->model;
  const int batches = BatchesPerEpoch(model);
  const int passes = ServePasses(*st);

  Tally tally;
  std::vector<double> epoch_s, eval_s, refresh_s;
  ServeSamples serve;
  std::optional<double> recall20;
  Stopwatch budget;
  int epochs = 0;
  auto serving = [&] {
    return static_cast<int64_t>(serve.request_ms.size()) < kServedRequests;
  };
  while (!recall20 || serving() || budget.ElapsedSeconds() < o.seconds) {
    // Training (in serve-refresh: the writer of the embedding table).
    for (int e = 0; e < w.epochs_per_round; ++e, ++epochs) {
      Stopwatch epoch;
      CountEpoch(model.TrainEpoch(), batches, &tally);
      model.DecayLearningRate();
      epoch_s.push_back(epoch.ElapsedSeconds());
    }

    Stopwatch phase;
    do {
      Stopwatch sw;
      model.Finalize();
      const TopKMetrics m = st->evaluator->Evaluate(Scorer(model));
      eval_s.push_back(sw.ElapsedSeconds());
      if (!recall20 && epochs >= kRecallEpochs) recall20 = m.RecallAt(kTopK);
    } while (phase.ElapsedSeconds() < kMinPhaseSeconds);

    phase.Reset();
    do {
      Stopwatch sw;
      model.Finalize();
      st->index = retrieval::MipsIndex::Build(model.item_embeddings());
      refresh_s.push_back(sw.ElapsedSeconds());
    } while (phase.ElapsedSeconds() < kMinPhaseSeconds);

    if (recall20 && serving()) ServeRound(*st, passes, &serve, &tally);
  }

  const std::optional<double> p99 = TailPercentile(serve.request_ms, 0.99);
  const std::optional<double> p90 = TailPercentile(serve.request_ms, 0.90);
  const double peak_mb =
      static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0);
  std::printf("graph: %d users, %d items, %lld train edges\n",
              model.graph().num_users(), model.graph().num_items(),
              static_cast<long long>(model.graph().num_edges()));
  std::printf("setup: %d reps, median %.4f s (generate median %.4f s), "
              "%d pretraining epochs until the index prunes\n",
              kSetupReps, Median(setup.total_s), Median(setup.generate_s),
              st->pretrain_epochs);
  std::printf("samples: epochs=%zu evals=%zu refreshes=%zu requests=%zu in "
              "%d rounds (p99 has %lld beyond it)\n",
              epoch_s.size(), eval_s.size(), refresh_s.size(),
              serve.request_ms.size(), serve.rounds,
              static_cast<long long>(SamplesBeyond(
                  static_cast<int64_t>(serve.request_ms.size()), 0.99)));

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup.total_s), "s"},
      {"epoch_s", Median(epoch_s), "s"},
      {"eval_s", Median(eval_s), "s"},
      {"recall20", recall20.value_or(0.0), "fraction"},
      {"peak_rss_mb", peak_mb, "MiB"},
      {"serve_users_per_s", Median(serve.pass_users_per_s), "users/s"},
      {"serve_ms_p50", Median(serve.request_ms), "ms"},
      {"refresh_s", Median(refresh_s), "s"},
  };
  for (const Metric& m : metrics) {
    std::printf("metric %-18s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // Printed, not gated: the tail of sub-millisecond requests that each wake
  // the thread pool follows the host's scheduling delays, so it moves by
  // 20-30% (p90) and 2.5x (p99) between runs of the same code.
  std::printf("serve_ms_p90 %.6g ms, serve_ms_p99 %.6g ms (n=%zu)\n",
              p90.value_or(0.0), p99.value_or(0.0), serve.request_ms.size());
  const bool correct = tally.failed == 0 && recall20.has_value() &&
                       *recall20 > 0 && p99.has_value();
  PrintResult(correct, tally, metrics);
  return 0;
}

// ------------------------------------------------------------ traced run

/// Standalone GraphAug layer objects, built from a dataset and config the
/// same way the GraphAug model builds its own, so one step through them
/// mirrors one TrainEpoch batch through public calls.
struct GraphAugStack {
  GraphAugStack(const BipartiteGraph* g, const GraphAugConfig& c)
      : graph(g), cfg(c), sampler(g), rng(c.seed),
        adam(c.learning_rate, 0.9f, 0.999f, 1e-8f, c.weight_decay) {
    adj = graph->BuildNormalizedAdjacency(cfg.self_loop_weight);
    cache = std::make_unique<AdjacencyPowerCache>(&adj.matrix);
    emb = store.CreateNormal("embeddings", graph->num_nodes(), cfg.dim, &rng);
    encoder = std::make_unique<MixhopEncoder>(
        &store, "mixhop", cfg.dim, cfg.num_layers, cfg.hops, cfg.leaky_slope,
        &rng, cfg.mixhop_mode, cfg.mixhop_activation);
    augmenter = MakeAugmenter(cfg.augmentor);
    AugmenterInit init;
    init.graph = graph;
    init.adj = &adj;
    init.power_cache = cache.get();
    init.store = &store;
    init.dim = cfg.dim;
    init.num_layers = cfg.num_layers;
    init.rng = &rng;
    augmenter->Init(init);
  }

  const BipartiteGraph* graph;
  GraphAugConfig cfg;
  TripletSampler sampler;
  Rng rng;
  Adam adam;
  NormalizedAdjacency adj;
  std::unique_ptr<AdjacencyPowerCache> cache;
  ParamStore store;
  Parameter* emb = nullptr;
  std::unique_ptr<MixhopEncoder> encoder;
  std::unique_ptr<GraphAugmenter> augmenter;
};

/// Standalone LightGCN layer objects (embedding table, Ã, sampler, Adam).
struct LightGcnStack {
  LightGcnStack(const BipartiteGraph* g, const ModelConfig& c)
      : graph(g), cfg(c), sampler(g), rng(c.seed),
        adam(c.learning_rate, 0.9f, 0.999f, 1e-8f, c.weight_decay) {
    adj = graph->BuildNormalizedAdjacency(0.f);
    emb = store.CreateNormal("embeddings", graph->num_nodes(), cfg.dim, &rng);
  }

  const BipartiteGraph* graph;
  ModelConfig cfg;
  TripletSampler sampler;
  Rng rng;
  Adam adam;
  NormalizedAdjacency adj;
  ParamStore store;
  Parameter* emb = nullptr;
};

std::vector<int32_t> NodeIds(const std::vector<int32_t>& items,
                             int32_t offset) {
  std::vector<int32_t> out(items);
  for (int32_t& v : out) v += offset;
  return out;
}

Var Bpr(Var h, const TripletBatch& batch, int32_t offset) {
  Var u = ag::GatherRows(h, batch.users);
  Var p = ag::GatherRows(h, NodeIds(batch.pos_items, offset));
  Var n = ag::GatherRows(h, NodeIds(batch.neg_items, offset));
  return ag::BprLoss(ag::RowDot(u, p), ag::RowDot(u, n));
}

struct StepResult {
  int tape_nodes = 0;
  double loss = 0;
};

/// One GraphAug training step through public layer calls, each timed as a
/// span named `prefix` + layer metric name.
StepResult GraphAugStep(GraphAugStack* s, SpanRecorder* rec,
                        const std::string& prefix) {
  const int32_t offset = s->graph->num_users();
  TripletBatch batch;
  rec->Time(prefix + "data.sample",
            [&] { batch = s->sampler.Sample(s->cfg.batch_size, &s->rng); });
  Tape tape;
  Var base = ag::Leaf(&tape, s->emb);
  Var h_bar, loss, z1, z2, aux, cl;
  rec->Time(prefix + "core.encode",
            [&] { h_bar = s->encoder->Encode(&tape, s->cache.get(), base); });
  rec->Time(prefix + "autograd.bpr", [&] { loss = Bpr(h_bar, batch, offset); });
  AugmenterState state;
  state.tape = &tape;
  state.base = base;
  state.h_bar = h_bar;
  state.batch = &batch;
  state.rng = &s->rng;
  AugmentedViews views;
  rec->Time(prefix + "augment.augment",
            [&] { views = s->augmenter->Augment(state); });
  rec->Time(prefix + "core.encode_view", [&] {
    z1 = s->encoder->EncodeWeighted(&tape, &s->adj, views.first.edge_weights,
                                    base);
    z2 = s->encoder->EncodeWeighted(&tape, &s->adj, views.second.edge_weights,
                                    base);
  });
  rec->Time(prefix + "augment.aux_loss",
            [&] { aux = s->augmenter->AuxLoss(state, z1, z2); });
  if (aux.valid()) loss = ag::Add(loss, aux);
  const std::vector<int32_t> users =
      s->sampler.SampleUsers(s->cfg.contrast_batch, &s->rng);
  const std::vector<int32_t> items =
      NodeIds(s->sampler.SampleItems(s->cfg.contrast_batch, &s->rng), offset);
  rec->Time(prefix + "core.contrastive", [&] {
    cl = ag::Add(ag::InfoNceLoss(ag::GatherRows(z1, users),
                                 ag::GatherRows(z2, users),
                                 s->cfg.temperature),
                 ag::InfoNceLoss(ag::GatherRows(z1, items),
                                 ag::GatherRows(z2, items),
                                 s->cfg.temperature));
  });
  loss = ag::Add(loss, ag::Scale(cl, s->cfg.beta2 * s->cfg.ssl_weight));
  StepResult r{tape.size(), loss.value().scalar()};
  rec->Time(prefix + "autograd.backward", [&] { tape.Backward(loss); });
  rec->Time(prefix + "autograd.optim", [&] { s->adam.Step(&s->store); });
  return r;
}

/// One LightGCN training step through public layer calls.
StepResult LightGcnStep(LightGcnStack* s, SpanRecorder* rec,
                        const std::string& prefix) {
  TripletBatch batch;
  rec->Time(prefix + "data.sample",
            [&] { batch = s->sampler.Sample(s->cfg.batch_size, &s->rng); });
  Tape tape;
  Var base = ag::Leaf(&tape, s->emb);
  Var h, loss;
  rec->Time(prefix + "models.propagate", [&] {
    h = LightGcnPropagate(&tape, &s->adj.matrix, base, s->cfg.num_layers);
  });
  rec->Time(prefix + "autograd.bpr",
            [&] { loss = Bpr(h, batch, s->graph->num_users()); });
  StepResult r{tape.size(), loss.value().scalar()};
  rec->Time(prefix + "autograd.backward", [&] { tape.Backward(loss); });
  rec->Time(prefix + "autograd.optim", [&] { s->adam.Step(&s->store); });
  return r;
}

/// Inputs of the standalone kernel probes, shaped after the workload graph.
struct KernelInputs {
  explicit KernelInputs(const BipartiteGraph& g, const Matrix& items, int d,
                        Rng* rng)
      : adj(g.BuildNormalizedAdjacency(0.f)),
        node_emb(g.num_nodes(), d),
        edge_in(g.num_edges(), 2 * d),
        edge_w(2 * d, d),
        queries(kRequestUsers, d),
        item_emb(items) {
    for (Matrix* m : {&node_emb, &edge_in, &edge_w, &queries}) {
      InitNormal(m, rng);
    }
    ew_h = store.CreateNormal("h", g.num_nodes(), d, rng);
    ew_w = store.Create("w", g.num_edges(), 1);
    ew_w->value.Fill(0.8f);
  }

  NormalizedAdjacency adj;
  Matrix node_emb, edge_in, edge_w, queries, item_emb;
  ParamStore store;
  Parameter* ew_h = nullptr;
  Parameter* ew_w = nullptr;
};

void KernelProbes(KernelInputs* k, Rng* rng, SpanRecorder* rec) {
  const int64_t threads = NumThreads();
  const int64_t grain = 64;
  for (int r = 0; r < kProbeReps; ++r) {
    rec->Time("common.parallel_for", [&] {
      for (int i = 0; i < kParallelForDispatches; ++i) {
        ParallelFor(0, threads * grain, grain, [](int64_t, int64_t) {});
      }
    });
    Matrix noise(k->edge_in.rows(), k->edge_w.cols());
    rec->Time("tensor.init_normal",
              [&] { InitNormal(&noise, rng, 0.f, 0.1f); });
    Matrix out;
    rec->Time("tensor.gemm_edge", [&] {
      Gemm(k->edge_in, false, k->edge_w, false, 1.f, 0.f, &out);
    });
    rec->Time("tensor.gemm_rank", [&] {
      Gemm(k->queries, false, k->item_emb, true, 1.f, 0.f, &out);
    });
    rec->Time("graph.spmm", [&] { k->adj.matrix.Spmm(k->node_emb, &out); });
    rec->Time("graph.spmm_t", [&] { k->adj.matrix.SpmmT(k->node_emb, &out); });
    rec->Time("graph.edge_weighted_spmm", [&] {
      Tape tape;
      Var y = ag::EdgeWeightedSpmm(&k->adj, ag::Leaf(&tape, k->ew_w),
                                   ag::Leaf(&tape, k->ew_h));
      tape.Backward(ag::SumAll(y));
    });
    k->store.ZeroGrad();
  }
}

struct SpmmCalls {
  int64_t forward = 0;
  int64_t backward = 0;
};

/// Counts the SpMM products of one mirrored step with the autograd op
/// profiler (enabled for this untimed step only).
template <typename StepFn>
SpmmCalls CountSpmmCalls(StepFn&& step) {
  obs::AutogradProfiler::Get().Reset();
  obs::SetEnabled(true);
  step();
  obs::SetEnabled(false);
  SpmmCalls c;
  for (const auto& [op, stats] : obs::AutogradProfiler::Get().Snapshot()) {
    if (op == "Spmm" || op == "SpmmPower") {
      c.forward += stats.fwd_calls;
      c.backward += stats.bwd_calls;
    }
  }
  return c;
}

int RunTraced(const Workload& w, const Options& o) {
  SetupTimes setup;
  std::unique_ptr<State> st = RepeatedSetup(w, o.seed, &setup);
  Recommender& model = *st->model;
  const int batches = BatchesPerEpoch(model);
  const BipartiteGraph& graph = model.graph();
  const GraphAugConfig ga_cfg = MakeGaConfig();
  const ModelConfig lg_cfg = MakeLgConfig();
  GraphAugStack ga(&graph, ga_cfg);
  LightGcnStack lg(&graph, lg_cfg);
  Rng probe_rng(o.seed);
  KernelInputs kernels(graph, model.item_embeddings(), lg_cfg.dim, &probe_rng);

  // The model's own layer stack is the mirror (its spans have plain
  // names); the other stack runs as a probe of its layers on this graph.
  SpanRecorder rec;
  const std::string kProbe = "probe:";
  auto mirror_step = [&](SpanRecorder* r) {
    return w.graphaug ? GraphAugStep(&ga, r, "") : LightGcnStep(&lg, r, "");
  };
  auto probe_step = [&](SpanRecorder* r) {
    return w.graphaug ? LightGcnStep(&lg, r, kProbe)
                      : GraphAugStep(&ga, r, kProbe);
  };
  SpanRecorder untimed;
  const SpmmCalls spmm_calls = CountSpmmCalls([&] { mirror_step(&untimed); });

  Tally tally;
  // Untraced epochs first: the base of the tracing overhead.
  std::vector<double> untraced_epoch_s;
  Stopwatch budget;
  while (untraced_epoch_s.size() < 3 ||
         budget.ElapsedSeconds() < 0.2 * o.seconds) {
    Stopwatch sw;
    CountEpoch(model.TrainEpoch(), batches, &tally);
    model.DecayLearningRate();
    untraced_epoch_s.push_back(sw.ElapsedSeconds());
  }

  std::vector<double> epoch_s, step_ms, tape_nodes;
  std::vector<double> scored_frac, cpruned_frac;
  std::vector<int> mirror_ids;
  const std::vector<int32_t>& users = st->evaluator->evaluable_users();
  for (int it = 0; it < 3 || budget.ElapsedSeconds() < o.seconds; ++it) {
    rec.set_step(it);
    double loss = 0;
    const int64_t epoch_ns = rec.Time("models.train_epoch", [&] {
      loss = model.TrainEpoch();
    });
    CountEpoch(loss, batches, &tally);
    model.DecayLearningRate();
    epoch_s.push_back(static_cast<double>(epoch_ns) * 1e-9);
    step_ms.push_back(static_cast<double>(epoch_ns) * 1e-6 / batches);

    mirror_ids.push_back(rec.Begin("mirror.step"));
    const StepResult m = mirror_step(&rec);
    rec.End(mirror_ids.back());
    CountEpoch(m.loss, 1, &tally);
    tape_nodes.push_back(m.tape_nodes);

    const int probe_id = rec.Begin("probe.step");
    CountEpoch(probe_step(&rec).loss, 1, &tally);
    rec.End(probe_id);

    KernelProbes(&kernels, &probe_rng, &rec);
    rec.Time("models.finalize", [&] { model.Finalize(); });
    rec.Time("eval.rank", [&] { st->evaluator->Evaluate(Scorer(model)); });
    rec.Time("retrieval.build", [&] {
      st->index = retrieval::MipsIndex::Build(model.item_embeddings());
    });
    const int64_t n = static_cast<int64_t>(users.size());
    const int64_t b = (it * kRequestUsers) % n;
    const std::vector<int32_t> chunk(
        users.begin() + b, users.begin() + std::min(n, b + kRequestUsers));
    std::vector<retrieval::TopKList> lists;
    rec.Time("retrieval.batch", [&] {
      const Matrix q = GatherRows(model.user_embeddings(), chunk);
      st->index.RetrieveBatch(q, kTopK, TrainItemsOf(graph, chunk), &lists);
    });
    const PruneStats p = MeasurePruning(st->index, model, users);
    scored_frac.push_back(p.items_scored_frac);
    cpruned_frac.push_back(p.clusters_pruned_frac);
  }

  // Coverage: the layer time of each mirrored step (its children, i.e. its
  // duration minus its self time) against the same iteration's real step.
  std::vector<double> coverage;
  const std::vector<int64_t> self_ns = rec.SelfTimes();
  for (size_t i = 0; i < mirror_ids.size(); ++i) {
    const size_t id = static_cast<size_t>(mirror_ids[i]);
    const double layer_ms =
        static_cast<double>(SpanRecorder::Duration(rec.spans()[id]) -
                            self_ns[id]) *
        1e-6;
    coverage.push_back(layer_ms / step_ms[i]);
  }

  // ---- report: self time per span name, then the per-layer metrics.
  const std::map<std::string, std::vector<double>> self = rec.SelfMsByName();
  std::printf("%-34s %8s %12s %12s\n", "span (self time)", "n", "median_ms",
              "p90_ms");
  for (const auto& [name, v] : self) {
    const std::optional<double> p90 = TailPercentile(v, 0.9);
    std::printf("%-34s %8zu %12.4f %12s\n", name.c_str(), v.size(), Median(v),
                p90 ? std::to_string(*p90).c_str() : "n<100");
  }
  auto layer_ms = [&](const std::string& name) {
    auto it = self.find(name);
    if (it == self.end()) it = self.find(kProbe + name);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  const double d = lg_cfg.dim;
  const double edges = static_cast<double>(graph.num_edges());
  const double nodes = static_cast<double>(graph.num_nodes());
  const double nnz = static_cast<double>(kernels.adj.matrix.nnz());
  const double items = static_cast<double>(graph.num_items());
  // SpMM bytes: values + column ids + one gathered dense row per nonzero,
  // plus row pointers and the written output rows.
  const double spmm_bytes = nnz * (8 + 4 * d) + nodes * (8 + 4 * d);
  const double spmm_ms = layer_ms("graph.spmm");
  const double spmm_t_ms = layer_ms("graph.spmm_t");
  const double step = Median(step_ms);
  const double spmm_share =
      (static_cast<double>(spmm_calls.forward) * spmm_ms +
       static_cast<double>(spmm_calls.backward) * spmm_t_ms) /
      step;
  const double overhead = Median(epoch_s) / Median(untraced_epoch_s);
  std::printf("coverage: mirrored-step layer time %.4f ms / real step %.4f ms "
              "(TrainEpoch %.4f s / %d batches) = %.4f\n",
              Median(coverage) * step, step, Median(epoch_s), batches,
              Median(coverage));
  std::printf("tracing overhead: traced epoch %.4f s (n=%zu) / untraced epoch "
              "%.4f s (n=%zu) = %.4f\n",
              Median(epoch_s), epoch_s.size(), Median(untraced_epoch_s),
              untraced_epoch_s.size(), overhead);
  std::printf("spmm per step: %lld Spmm x %.4f ms + %lld SpmmT x %.4f ms = "
              "%.4f of the %.4f ms step\n",
              static_cast<long long>(spmm_calls.forward), spmm_ms,
              static_cast<long long>(spmm_calls.backward), spmm_t_ms,
              spmm_share, step);

  const std::vector<Metric> metrics = {
      {"data.generate_s", Median(setup.generate_s), "s"},
      {"data.sample_ms", layer_ms("data.sample"), "ms"},
      {"common.parallel_for_us",
       layer_ms("common.parallel_for") * 1e3 / kParallelForDispatches, "us"},
      {"tensor.init_normal_ms", layer_ms("tensor.init_normal"), "ms"},
      {"tensor.gemm_edge_gflops",
       2 * edges * 2 * d * d / (layer_ms("tensor.gemm_edge") * 1e6),
       "GFLOP/s"},
      {"tensor.gemm_rank_gflops",
       2 * kRequestUsers * d * items / (layer_ms("tensor.gemm_rank") * 1e6),
       "GFLOP/s"},
      {"graph.spmm_ms", spmm_ms, "ms"},
      {"graph.spmm_gbps", spmm_bytes / (spmm_ms * 1e6), "GB/s"},
      {"graph.spmm_t_ms", spmm_t_ms, "ms"},
      {"graph.edge_weighted_spmm_ms", layer_ms("graph.edge_weighted_spmm"),
       "ms"},
      {"graph.spmm_step_share", spmm_share, "fraction"},
      {"autograd.tape_nodes", Median(tape_nodes), "count"},
      {"autograd.bpr_ms", layer_ms("autograd.bpr"), "ms"},
      {"autograd.backward_ms", layer_ms("autograd.backward"), "ms"},
      {"autograd.optim_ms", layer_ms("autograd.optim"), "ms"},
      {"augment.augment_ms", layer_ms("augment.augment"), "ms"},
      {"augment.aux_loss_ms", layer_ms("augment.aux_loss"), "ms"},
      {"core.encode_ms", layer_ms("core.encode"), "ms"},
      {"core.encode_view_ms", layer_ms("core.encode_view"), "ms"},
      {"core.contrastive_ms", layer_ms("core.contrastive"), "ms"},
      {"models.propagate_ms", layer_ms("models.propagate"), "ms"},
      {"models.step_ms", step, "ms"},
      {"models.finalize_ms", layer_ms("models.finalize"), "ms"},
      {"models.trace_coverage", Median(coverage), "fraction"},
      {"eval.rank_s", layer_ms("eval.rank") * 1e-3, "s"},
      {"retrieval.build_s", layer_ms("retrieval.build") * 1e-3, "s"},
      {"retrieval.batch_ms", layer_ms("retrieval.batch"), "ms"},
      {"retrieval.items_scored_frac", Median(scored_frac), "fraction"},
      {"retrieval.clusters_pruned_frac", Median(cpruned_frac), "fraction"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!o.spans_out.empty() && !rec.WriteJsonLines(o.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_out.c_str());
    return 1;
  }
  PrintResult(tally.failed == 0, tally, metrics);
  return 0;
}

// ------------------------------------------------------------------ main

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      o->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--spans-out") {
      o->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o) || !(o.seconds > 0)) return 2;
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const int threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  SetNumThreads(threads);
  PrintProvenance(o, threads);
  return o.trace ? RunTraced(*w, o) : RunEndToEnd(*w, o);
}

}  // namespace
}  // namespace graphaug::perfbench

int main(int argc, char** argv) {
  return graphaug::perfbench::Main(argc, argv);
}
