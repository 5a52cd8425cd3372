#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "chains/engine.hpp"
#include "chains/init.hpp"
#include "chains/local_metropolis.hpp"
#include "chains/luby_glauber.hpp"
#include "chains/replicas.hpp"
#include "csp/compiled.hpp"
#include "csp/csp_chains.hpp"
#include "local/node_programs.hpp"
#include "local/sharding.hpp"
#include "mrf/models.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace chains = lsample::chains;
namespace local = lsample::local;

using core::Algorithm;

namespace {

constexpr std::int64_t kBarriersPerChainStep = 2;

int resolved_threads(const core::SamplerOptions& o) {
  return o.num_threads == 0 ? chains::ParallelEngine::hardware_threads()
                            : o.num_threads;
}

mrf::CompiledMrf::Options compile_options(const core::SamplerOptions& o) {
  return {o.reorder, o.fast_math ? mrf::CompiledMrf::Tier::fast_math
                                 : mrf::CompiledMrf::Tier::exact};
}

// The facade's CFTP horizon cap (sampler.cpp, cftp_horizon_cap).
std::int64_t cftp_cap(std::int64_t budget_rounds) {
  return budget_rounds > 0
             ? std::max<std::int64_t>(std::int64_t{64}, budget_rounds)
             : chains::StoppingOptions{}.cftp_max_horizon;
}

std::unique_ptr<csp::CspChain> make_csp_chain(
    Algorithm algorithm, std::shared_ptr<const csp::CompiledFactorGraph> cfg,
    std::uint64_t seed) {
  if (algorithm == Algorithm::luby_glauber)
    return std::make_unique<csp::CspLubyGlauberChain>(std::move(cfg), seed);
  return std::make_unique<csp::CspLocalMetropolisChain>(std::move(cfg), seed);
}

/// Timed replica jobs of one batch, added as child spans once the batch
/// returned (workers must not touch the trace).
struct ReplicaTimes {
  explicit ReplicaTimes(int replicas)
      : start(static_cast<std::size_t>(replicas)),
        end(static_cast<std::size_t>(replicas)) {}
  void add_spans(Trace& trace, const char* name, int parent, int request) {
    for (std::size_t r = 0; r < start.size(); ++r)
      (void)trace.add(name, start[r], end[r], parent, request,
                      static_cast<int>(r) + 1);
  }
  std::vector<std::int64_t> start, end;
};

// sample_coloring: plan_coloring + run_chain.
ReplayResult replay_coloring(const Workload& w, const Request& r,
                             Trace& trace) {
  const Instance& inst = w.instances[static_cast<std::size_t>(r.instance)];
  const core::SamplerOptions& opt = r.options;
  const int req = static_cast<int>(r.id);
  ReplayResult out;
  SpanScope root(trace, "core.request", -1, req);
  out.root = root.id();
  const int P = root.id();

  std::optional<mrf::Mrf> m;
  {
    SpanScope s(trace, "mrf.build", P, req);
    m.emplace(mrf::make_proper_coloring(inst.g, r.q));
  }
  const std::int64_t rounds =
      opt.rounds.has_value()
          ? *opt.rounds
          : core::coloring_round_budget(inst.g->num_vertices(),
                                        inst.g->max_degree(), r.q,
                                        opt.algorithm, opt.epsilon);
  Outcome& o = out.outcome;
  o.rounds_used = rounds;
  o.budget_rounds = rounds;
  mrf::Config x;
  {
    SpanScope s(trace, "chains.init", P, req);
    x = chains::greedy_feasible_config(*m);
  }
  const int threads = resolved_threads(opt);
  std::optional<chains::ParallelEngine> engine;
  if (threads > 1) {
    SpanScope s(trace, "chains.engine.spawn", P, req);
    engine.emplace(threads);
  }
  chains::ParallelEngine* eng = engine.has_value() ? &*engine : nullptr;
  std::shared_ptr<const mrf::CompiledMrf> cm;
  std::unique_ptr<chains::Chain> chain;

  if (opt.backend == core::Backend::local_network) {
    {
      SpanScope s(trace, "mrf.compile", P, req);
      cm = std::make_shared<const mrf::CompiledMrf>(
          *m, mrf::CompiledMrf::Options{opt.reorder,
                                        mrf::CompiledMrf::Tier::exact});
    }
    const bool luby = opt.algorithm == Algorithm::luby_glauber;
    if (opt.num_shards > 1) {
      local::ShardedNetwork::Options net_options;
      net_options.partition.num_shards = opt.num_shards;
      std::optional<local::ShardedNetwork> net;
      {
        SpanScope s(trace, "local.build", P, req);
        net.emplace(luby ? local::make_sharded_luby_glauber_network(
                               cm, x, opt.seed, std::move(net_options))
                         : local::make_sharded_local_metropolis_network(
                               cm, x, opt.seed, std::move(net_options)));
        if (eng != nullptr) net->set_engine(eng);
      }
      {
        SpanScope s(trace, "local.rounds", P, req);
        net->run_rounds(rounds + 1);
        x = net->outputs();
      }
      SpanScope s(trace, "local.free", P, req);
      net.reset();
    } else {
      std::optional<local::Network> net;
      {
        SpanScope s(trace, "local.build", P, req);
        net.emplace(luby ? local::make_luby_glauber_network(cm, x, opt.seed)
                         : local::make_local_metropolis_network(cm, x,
                                                                opt.seed));
        if (eng != nullptr) net->set_engine(eng);
      }
      {
        SpanScope s(trace, "local.rounds", P, req);
        net->run_rounds(rounds + 1);
        x = net->outputs();
      }
      SpanScope s(trace, "local.free", P, req);
      net.reset();
    }
    if (eng != nullptr) out.local_barriers += rounds + 1;
  } else {
    chains::StopRule rule = opt.stop;
    if (rule == chains::StopRule::automatic)
      rule = chains::is_hardcore_shaped(*m) ? chains::StopRule::cftp
                                            : chains::StopRule::coupling;
    if (rule != chains::StopRule::fixed && rule != chains::StopRule::coupling)
      throw std::invalid_argument(
          "the replay mirrors stop = fixed and coupling for colorings only");
    {
      SpanScope s(trace, "mrf.compile", P, req);
      cm = std::make_shared<const mrf::CompiledMrf>(*m, compile_options(opt));
    }
    std::int64_t payload_rounds = rounds;
    if (rule == chains::StopRule::coupling) {
      SpanScope s(trace, "chains.stop.coupling", P, req);
      out.diag_steps = 0;
      const chains::StopDecision d =
          coupling_decision(cm, *m, x, opt.algorithm, opt.seed, rounds,
                            opt.num_threads, &out.diag_steps);
      payload_rounds = d.rounds_used;
      o.rounds_used = payload_rounds;
    }
    chain = make_mrf_chain(opt.algorithm, cm, opt.seed);
    if (eng != nullptr) chain->set_engine(eng);
    {
      SpanScope s(trace, "chains.payload", P, req);
      chains::run(*chain, x, 0, payload_rounds);
    }
    if (eng != nullptr)
      out.chain_barriers += kBarriersPerChainStep * payload_rounds;
  }
  {
    SpanScope s(trace, "mrf.feasible", P, req);
    o.feasible = m->feasible(x);
  }
  o.configs.push_back(std::move(x));
  {
    SpanScope s(trace, "chains.engine.join", P, req);
    engine.reset();
  }
  SpanScope s(trace, "mrf.free", P, req);
  chain.reset();
  cm.reset();
  m.reset();
  return out;
}

// sample_many_colorings (plan_coloring + run_replicas) and sample_many
// (run_replicas; its automatic rule resolves to CFTP on hardcore models).
ReplayResult replay_mrf_batch(const Workload& w, const Request& r,
                              Trace& trace) {
  const Instance& inst = w.instances[static_cast<std::size_t>(r.instance)];
  const core::SamplerOptions& opt = r.options;
  const int req = static_cast<int>(r.id);
  const int replicas = opt.num_replicas;
  ReplayResult out;
  SpanScope root(trace, "core.request", -1, req);
  out.root = root.id();
  const int P = root.id();

  std::optional<mrf::Mrf> built;
  const mrf::Mrf* m = inst.hardcore.get();
  std::int64_t rounds = opt.rounds.value_or(0);
  if (r.call == Call::many_colorings) {
    {
      SpanScope s(trace, "mrf.build", P, req);
      built.emplace(mrf::make_proper_coloring(inst.g, r.q));
    }
    m = &*built;
    if (!opt.rounds.has_value())
      rounds = core::coloring_round_budget(inst.g->num_vertices(),
                                           inst.g->max_degree(), r.q,
                                           opt.algorithm, opt.epsilon);
  }
  std::shared_ptr<const mrf::CompiledMrf> cm;
  {
    SpanScope s(trace, "mrf.compile", P, req);
    cm = std::make_shared<const mrf::CompiledMrf>(*m, compile_options(opt));
  }
  mrf::Config x0;
  {
    SpanScope s(trace, "chains.init", P, req);
    x0 = chains::greedy_feasible_config(*m);
  }
  chains::StopRule rule = opt.stop;
  if (rule == chains::StopRule::automatic)
    rule = chains::is_hardcore_shaped(*m) ? chains::StopRule::cftp
                                          : chains::StopRule::coupling;
  if (rule != chains::StopRule::fixed && rule != chains::StopRule::cftp)
    throw std::invalid_argument(
        "the replay mirrors MRF batches with stop = fixed or cftp only");

  Outcome& o = out.outcome;
  o.budget_rounds = rounds;
  o.rounds_used = rounds;
  o.configs.assign(static_cast<std::size_t>(replicas), mrf::Config{});
  std::vector<char> feasible(static_cast<std::size_t>(replicas), 0);
  std::vector<std::int64_t> sweeps(static_cast<std::size_t>(replicas), 0);
  ReplicaTimes times(replicas);
  std::optional<chains::ReplicaRunner> runner;
  {
    SpanScope s(trace, "chains.engine.spawn", P, req);
    runner.emplace(opt.num_threads);
  }
  if (rule == chains::StopRule::cftp) {
    const std::int64_t cap = cftp_cap(rounds);
    SpanScope batch(trace, "chains.replicas.batch", P, req);
    runner->run(replicas, [&](int rep) {
      const auto i = static_cast<std::size_t>(rep);
      times.start[i] = now_ns();
      chains::CftpResult perfect = chains::cftp_hardcore(
          *m, chains::replica_seed(opt.seed, static_cast<std::uint64_t>(rep)),
          /*first_horizon=*/8, cap);
      sweeps[i] = perfect.sweeps;
      feasible[i] = m->feasible(perfect.config) ? 1 : 0;
      o.configs[i] = std::move(perfect.config);
      times.end[i] = now_ns();
    });
    times.add_spans(trace, "chains.stop.cftp", batch.id(), req);
    o.rounds_used = *std::max_element(sweeps.begin(), sweeps.end());
    out.diag_steps = 0;
    for (const std::int64_t s : sweeps) out.diag_steps += s;
  } else {
    SpanScope batch(trace, "chains.replicas.batch", P, req);
    runner->run(replicas, [&](int rep) {
      const auto i = static_cast<std::size_t>(rep);
      times.start[i] = now_ns();
      const auto chain = make_mrf_chain(
          opt.algorithm, cm,
          chains::replica_seed(opt.seed, static_cast<std::uint64_t>(rep)));
      mrf::Config x = x0;
      chains::run(*chain, x, 0, rounds);
      feasible[i] = m->feasible(x) ? 1 : 0;
      o.configs[i] = std::move(x);
      times.end[i] = now_ns();
    });
    times.add_spans(trace, "chains.payload", batch.id(), req);
  }
  out.chain_barriers += 1;
  o.feasible = std::all_of(feasible.begin(), feasible.end(),
                           [](char f) { return f != 0; });
  {
    SpanScope s(trace, "chains.engine.join", P, req);
    runner.reset();
  }
  SpanScope s(trace, "mrf.free", P, req);
  cm.reset();
  built.reset();
  return out;
}

// sample_many_csp with stop = rhat.
ReplayResult replay_csp_batch(const Workload& w, const Request& r,
                              Trace& trace) {
  const Instance& inst = w.instances[static_cast<std::size_t>(r.instance)];
  const core::SamplerOptions& opt = r.options;
  const int req = static_cast<int>(r.id);
  const int replicas = opt.num_replicas;
  if (opt.stop != chains::StopRule::rhat || !opt.rounds.has_value())
    throw std::invalid_argument(
        "the replay mirrors CSP batches with stop = rhat and explicit rounds");
  ReplayResult out;
  SpanScope root(trace, "core.request", -1, req);
  out.root = root.id();
  const int P = root.id();
  {
    SpanScope s(trace, "csp.check", P, req);
    csp::check_config(*inst.fg, inst.x0);
  }
  std::shared_ptr<const csp::CompiledFactorGraph> cfg;
  {
    SpanScope s(trace, "csp.compile", P, req);
    cfg = std::make_shared<const csp::CompiledFactorGraph>(
        *inst.fg, csp::CompiledFactorGraph::Options{opt.reorder});
  }
  Outcome& o = out.outcome;
  o.budget_rounds = *opt.rounds;
  {
    // rhat_decision_csp: every diagnostic replica starts from x0.
    SpanScope s(trace, "chains.stop.rhat", P, req);
    chains::StoppingOptions sopt;
    sopt.max_rounds = *opt.rounds;
    sopt.num_threads = opt.num_threads;
    std::vector<std::int64_t> steps(
        static_cast<std::size_t>(sopt.rhat_replicas), 0);
    const auto factory = [&](int rep, std::uint64_t rseed) {
      chains::DiagnosticReplica d;
      d.x = inst.x0;
      std::shared_ptr<csp::CspChain> chain =
          make_csp_chain(opt.algorithm, cfg, rseed);
      std::int64_t* count = &steps[static_cast<std::size_t>(rep)];
      d.step = [chain, count](csp::Config& x, std::int64_t t) {
        chain->step(x, t);
        ++*count;
      };
      return d;
    };
    o.rounds_used = chains::rhat_stop(factory, opt.seed, sopt).rounds_used;
    out.diag_steps = 0;
    for (const std::int64_t c : steps) out.diag_steps += c;
  }
  o.configs.assign(static_cast<std::size_t>(replicas), csp::Config{});
  std::vector<char> feasible(static_cast<std::size_t>(replicas), 0);
  ReplicaTimes times(replicas);
  std::optional<chains::ReplicaRunner> runner;
  {
    SpanScope s(trace, "chains.engine.spawn", P, req);
    runner.emplace(opt.num_threads);
  }
  {
    SpanScope batch(trace, "chains.replicas.batch", P, req);
    runner->run(replicas, [&](int rep) {
      const auto i = static_cast<std::size_t>(rep);
      times.start[i] = now_ns();
      const auto chain = make_csp_chain(
          opt.algorithm, cfg,
          chains::replica_seed(opt.seed, static_cast<std::uint64_t>(rep)));
      csp::Config x = inst.x0;
      for (std::int64_t t = 0; t < o.rounds_used; ++t) chain->step(x, t);
      feasible[i] = inst.fg->feasible(x) ? 1 : 0;
      o.configs[i] = std::move(x);
      times.end[i] = now_ns();
    });
    times.add_spans(trace, "csp.payload", batch.id(), req);
  }
  out.chain_barriers += 1;
  o.feasible = std::all_of(feasible.begin(), feasible.end(),
                           [](char f) { return f != 0; });
  {
    SpanScope s(trace, "chains.engine.join", P, req);
    runner.reset();
  }
  SpanScope s(trace, "csp.free", P, req);
  cfg.reset();
  return out;
}

}  // namespace

std::unique_ptr<chains::Chain> make_mrf_chain(
    Algorithm algorithm, std::shared_ptr<const mrf::CompiledMrf> cm,
    std::uint64_t seed) {
  if (algorithm == Algorithm::luby_glauber)
    return std::make_unique<chains::LubyGlauberChain>(std::move(cm), seed);
  return std::make_unique<chains::LocalMetropolisChain>(std::move(cm), seed);
}

chains::StopDecision coupling_decision(
    const std::shared_ptr<const mrf::CompiledMrf>& cm, const mrf::Mrf& m,
    const mrf::Config& x0, Algorithm algorithm, std::uint64_t seed,
    std::int64_t max_rounds, int num_threads, std::int64_t* steps) {
  chains::StoppingOptions sopt;
  sopt.max_rounds = max_rounds;
  sopt.num_threads = num_threads;
  // The facade's adversarial twin init (sampler.cpp, adversarial_config).
  mrf::Config y0 = chains::constant_config(m, m.q() - 1);
  if (y0 == x0) y0 = chains::constant_config(m, 0);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(sopt.coupling_pairs), 0);
  const auto factory = [&](int p, std::uint64_t pseed) {
    chains::CouplingPair pair;
    pair.x = x0;
    pair.y = y0;
    const std::shared_ptr<chains::Chain> cx =
        make_mrf_chain(algorithm, cm, pseed);
    const std::shared_ptr<chains::Chain> cy =
        make_mrf_chain(algorithm, cm, pseed);
    std::int64_t* count = &counts[static_cast<std::size_t>(p)];
    pair.step = [cx, cy, count](mrf::Config& x, mrf::Config& y,
                                std::int64_t t) {
      cx->step(x, t);
      cy->step(y, t);
      *count += 2;
    };
    return pair;
  };
  const chains::StopDecision d =
      chains::coupling_fleet_stop(factory, seed, sopt);
  for (const std::int64_t c : counts) *steps += c;
  return d;
}

ReplayResult replay(const Workload& w, const Request& r, Trace& trace) {
  switch (r.call) {
    case Call::coloring:
      return replay_coloring(w, r, trace);
    case Call::many_colorings:
    case Call::many_hardcore:
      return replay_mrf_batch(w, r, trace);
    case Call::many_csp:
      return replay_csp_batch(w, r, trace);
  }
  throw std::invalid_argument("unknown call");
}

}  // namespace e2ebench
