#include "layer_loops.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "chains/engine.hpp"
#include "chains/init.hpp"
#include "chains/kernels.hpp"
#include "chains/replicas.hpp"
#include "csp/compiled.hpp"
#include "csp/csp_chains.hpp"
#include "csp/csp_models.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "local/node_programs.hpp"
#include "local/sharding.hpp"
#include "mrf/models.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace chains = lsample::chains;
namespace local = lsample::local;
namespace util = lsample::util;

namespace {

constexpr int kShards = 4;
constexpr int kBatchReplicas = 16;
constexpr std::int64_t kBatchSteps = 8;
// The process-transport row runs on one fixed E1-shaped instance in every
// workload: each worker rebuilds the whole model from a serialized copy, so
// the dense workload's q*q-per-edge tables would cost gigabytes across four
// processes.
constexpr int kProcessN = 400;
constexpr int kProcessDegree = 8;
constexpr int kProcessQ = 28;
// The CSP rows of workloads without a CSP use batch-mix's grid shape.
constexpr int kCspGridSide = 40;

/// Median wall time per call of fn, over five batches each long enough
/// (>= 20 ms) for the steady clock's resolution not to matter.
template <typename F>
double per_call_ns(F&& fn) {
  constexpr std::int64_t kMinBatchNs = 20'000'000;
  std::int64_t calls = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    if (now_ns() - t0 >= kMinBatchNs) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

/// Median of `reps` single timed calls, in ms (calls long enough to time
/// one at a time).
template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

std::int64_t halo_bytes(const local::Network&) { return 0; }
std::int64_t halo_bytes(const local::ShardedNetwork& net) {
  return net.halo_stats().wire_bytes;
}

/// Time per network round plus the exact per-round traffic.
struct RoundRows {
  double us = 0.0;
  double messages = 0.0;
  double bits = 0.0;
  double halo_bytes = 0.0;
};

template <typename Net>
RoundRows time_rounds(Net& net) {
  net.run_rounds(1);  // round 0 is the initial broadcast
  const local::MessageStats before = net.stats();
  const std::int64_t round0 = net.round();
  const std::int64_t halo0 = halo_bytes(net);
  RoundRows rows;
  rows.us = per_call_ns([&] { net.run_round(); }) / 1e3;
  const double rounds = static_cast<double>(net.round() - round0);
  const local::MessageStats after = net.stats();
  rows.messages = static_cast<double>(after.messages - before.messages) / rounds;
  rows.bits = static_cast<double>(after.bits - before.bits) / rounds;
  rows.halo_bytes = static_cast<double>(halo_bytes(net) - halo0) / rounds;
  return rows;
}

// Written once so the compiler cannot drop the kernel loops.
volatile long long g_sink = 0;

}  // namespace

std::string find_shard_worker() {
  const char* env = std::getenv("LSAMPLE_SHARD_WORKER");
  const std::string path =
      env != nullptr && *env != '\0' ? std::string(env) : E2EBENCH_SHARD_WORKER;
  if (::access(path.c_str(), X_OK) != 0)
    throw ShardWorkerMissing(
        "shard_worker not found or not executable at '" + path +
        "' (set $LSAMPLE_SHARD_WORKER or build the shard_worker target)");
  return path;
}

Metrics measure_layer_loops(const Workload& w, const LoopOptions& options) {
  Metrics out;
  const int T = options.threads;
  const Request primary = w.request(0);
  const Instance& inst = w.instances[static_cast<std::size_t>(primary.instance)];
  const core::Algorithm alg = primary.options.algorithm;
  const std::uint64_t seed = primary.options.seed;
  // The workload's first request names the model: every workload's first
  // request is a coloring (batch-mix's is its 16-replica coloring batch).
  const mrf::Mrf m = mrf::make_proper_coloring(inst.g, primary.q);
  const auto cm = std::make_shared<const mrf::CompiledMrf>(m);
  const int n = cm->n();
  const mrf::Config x0 = chains::greedy_feasible_config(m);

  // graph: the S=4 partition the sharded backend builds per call.
  out.push_back({"graph.partition_ms", median_ms(5, [&] {
                   graph::PartitionOptions po;
                   po.num_shards = kShards;
                   (void)graph::make_partition(*inst.g, po);
                 }),
                 "ms"});

  // chains.engine: spawn + join, and one empty-body barrier round.
  out.push_back({"chains.engine.spawn_us",
                 per_call_ns([&] { chains::ParallelEngine e(T); }) / 1e3,
                 "us"});
  const auto barrier_ns = [&](int t) {
    chains::ParallelEngine e(t);
    return per_call_ns([&] { e.parallel_for(n, [](int, int, int) {}); });
  };
  const double barrier_1t = barrier_ns(1);
  const double barrier_2t = barrier_ns(2);
  out.push_back({"chains.engine.barrier_ns",
                 T == 1 ? barrier_1t : T == 2 ? barrier_2t : barrier_ns(T),
                 "ns"});
  out.push_back({"chains.engine.barrier_ns.1t", barrier_1t, "ns"});
  out.push_back({"chains.engine.barrier_ns.2t", barrier_2t, "ns"});

  // chains.kernel: per-vertex kernel calls on a configuration taken from
  // the middle of a trajectory.
  mrf::Config x = x0;
  {
    const auto chain = make_mrf_chain(alg, cm, seed);
    chains::run(*chain, x, 0, 32);
  }
  const util::CounterRng rng(seed);
  std::vector<double> scratch;
  std::int64_t t_kernel = 1000;
  long long sink = 0;
  out.push_back({"chains.kernel.heat_bath_ns", per_call_ns([&] {
                   ++t_kernel;
                   for (int v = 0; v < n; ++v)
                     sink += chains::heat_bath_kernel(*cm, rng, v, t_kernel, x,
                                                      scratch);
                 }) / n,
                 "ns"});
  mrf::Config proposal(static_cast<std::size_t>(n));
  out.push_back({"chains.kernel.lm_ns", per_call_ns([&] {
                   ++t_kernel;
                   for (int v = 0; v < n; ++v)
                     proposal[static_cast<std::size_t>(v)] =
                         chains::proposal_kernel(*cm, rng, v, t_kernel);
                   for (int v = 0; v < n; ++v)
                     sink += chains::lm_accept_kernel(*cm, rng, v, t_kernel,
                                                      proposal, x)
                                 ? 1
                                 : 0;
                 }) / n,
                 "ns"});
  // Heat-bath bytes per call: per incident edge a neighbor id, an edge id,
  // the neighbor's spin and a q-double table row; plus the vertex's q
  // activities and q scratch weights.
  const double avg_deg = 2.0 * cm->num_edges() / n;
  out.push_back({"chains.kernel.bytes_per_call",
                 avg_deg * (12.0 + 8.0 * cm->q()) + 16.0 * cm->q(),
                 "bytes_computed"});

  // chains.step: one Chain::step at the call thread count (engine attached)
  // and at one thread.
  double step_1t = 0.0;
  double step_nt = 0.0;
  for (const int t : {1, T}) {
    std::optional<chains::ParallelEngine> e;
    const auto chain = make_mrf_chain(alg, cm, seed);
    if (t > 1) {
      e.emplace(t);
      chain->set_engine(&*e);
    }
    mrf::Config y = x;
    std::int64_t step_t = 0;
    const double us = per_call_ns([&] { chain->step(y, step_t++); }) / 1e3;
    (t == 1 ? step_1t : step_nt) = us;
  }
  out.push_back({"chains.step_us", step_nt, "us"});
  out.push_back({"chains.step_us.1t", step_1t, "us"});
  out.push_back({"chains.scaling_eff", step_1t / (T * step_nt), "ratio"});

  if (options.stop_rows) {
    const std::int64_t budget = core::coloring_round_budget(
        n, inst.g->max_degree(), primary.q, alg, 0.01);
    std::int64_t steps = 0;
    const double ms = median_ms(3, [&] {
      steps = 0;
      (void)coupling_decision(cm, m, x0, alg, seed, budget, T, &steps);
    });
    out.push_back({"chains.stop.diag_ms", ms, "ms"});
    out.push_back({"chains.stop.diag_steps", static_cast<double>(steps),
                   "count"});
  }
  if (options.batch_rows) {
    std::vector<double> batch_ms;
    std::vector<double> imbalance;
    chains::ReplicaRunner runner(T);
    std::vector<std::int64_t> job_ns(kBatchReplicas);
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      runner.run(kBatchReplicas, [&](int r) {
        const std::int64_t j0 = now_ns();
        const auto chain = make_mrf_chain(
            alg, cm, chains::replica_seed(seed, static_cast<std::uint64_t>(r)));
        mrf::Config y = x0;
        chains::run(*chain, y, 0, kBatchSteps);
        job_ns[static_cast<std::size_t>(r)] = now_ns() - j0;
      });
      batch_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      std::vector<double> jobs(job_ns.begin(), job_ns.end());
      imbalance.push_back(*std::max_element(jobs.begin(), jobs.end()) /
                          mean(jobs));
    }
    out.push_back({"chains.replicas.batch_ms", median(batch_ms), "ms"});
    out.push_back({"chains.replicas.imbalance", median(imbalance), "ratio"});
  }

  // csp: compile and one sequential CspLocalMetropolis step (how batch
  // replicas run) of the workload's CSP, or of batch-mix's dominating sets
  // on a grid (a cover constraint spans a closed neighbourhood, which the
  // dense workload's degree makes too wide).
  std::shared_ptr<const csp::FactorGraph> fg;
  csp::Config cx0;
  for (const Instance& i : w.instances)
    if (i.fg != nullptr) {
      fg = i.fg;
      cx0 = i.x0;
    }
  if (fg == nullptr) {
    const graph::GraphPtr grid = graph::make_grid(kCspGridSide, kCspGridSide);
    fg = std::make_shared<const csp::FactorGraph>(
        csp::make_dominating_set(*grid, 1.0));
    cx0.assign(static_cast<std::size_t>(grid->num_vertices()), 1);
  }
  out.push_back({"csp.compile_ms", median_ms(5, [&] {
                   (void)csp::CompiledFactorGraph(*fg);
                 }),
                 "ms"});
  {
    csp::CspLocalMetropolisChain chain(
        std::make_shared<const csp::CompiledFactorGraph>(*fg), seed);
    csp::Config y = cx0;
    std::int64_t t = 0;
    out.push_back(
        {"csp.step_us", per_call_ns([&] { chain.step(y, t++); }) / 1e3, "us"});
  }

  // local: one network round at the call thread count, unsharded and S=4
  // in-process, with the exact per-round traffic.
  const bool luby = alg == core::Algorithm::luby_glauber;
  {
    chains::ParallelEngine e(T);
    local::Network net = luby ? local::make_luby_glauber_network(cm, x0, seed)
                              : local::make_local_metropolis_network(cm, x0,
                                                                     seed);
    net.set_engine(&e);
    const RoundRows rows = time_rounds(net);
    out.push_back({"local.round_us", rows.us, "us"});
    out.push_back({"local.messages_per_round", rows.messages, "count"});
    out.push_back({"local.bits_per_round", rows.bits, "bits"});
  }
  {
    chains::ParallelEngine e(T);
    local::ShardedNetwork::Options so;
    so.partition.num_shards = kShards;
    local::ShardedNetwork net =
        luby ? local::make_sharded_luby_glauber_network(cm, x0, seed, so)
             : local::make_sharded_local_metropolis_network(cm, x0, seed, so);
    net.set_engine(&e);
    const RoundRows rows = time_rounds(net);
    out.push_back({"local.sharded_round_us", rows.us, "us"});
    out.push_back({"local.halo_bytes_per_round", rows.halo_bytes, "bytes"});
  }
  {
    util::Rng grng(util::mix64(w.seed ^ 0x70c3550000000000ULL));
    const graph::GraphPtr pg =
        graph::make_random_regular(kProcessN, kProcessDegree, grng);
    const mrf::Mrf pm = mrf::make_proper_coloring(pg, kProcessQ);
    local::ShardedNetwork::Options so;
    so.partition.num_shards = kShards;
    local::ProcessTransportOptions po;
    po.worker_path = options.shard_worker;
    local::ShardedNetwork net = local::make_sharded_local_metropolis_network(
        std::make_shared<const mrf::CompiledMrf>(pm),
        chains::greedy_feasible_config(pm), seed, so,
        local::make_process_transport(po));
    out.push_back({"local.process_round_us", time_rounds(net).us, "us"});
  }
  g_sink = sink;
  return out;
}

}  // namespace e2ebench
