#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "csp/csp_models.hpp"
#include "graph/generators.hpp"
#include "mrf/models.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace {

using lsample::core::Algorithm;
using lsample::core::Backend;
namespace chains = lsample::chains;
namespace util = lsample::util;

// sparse-requests: E1-shaped random 8-regular graphs.  LubyGlauber at q=20
// and LocalMetropolis at q=28 both sit inside their theorems' regimes.
constexpr int kSparseDegree = 8;
constexpr int kSparseSizes[] = {400, 700, 1000};
constexpr int kSparseQLuby = 20;
constexpr int kSparseQMetropolis = 28;

// dense-colorings: Delta = sqrt(n), q above (2 + sqrt 2) * Delta, the regime
// where LocalMetropolis's O(log n) rounds beat LubyGlauber's O(Delta log n).
constexpr int kDenseN = 324;
constexpr int kDenseDegree = 18;
constexpr int kDenseQ = 64;

// batch-mix: 16-replica batches of three models.
constexpr int kBatchReplicas = 16;
constexpr int kBatchColoringN = 1000;
constexpr int kBatchColoringDegree = 8;
constexpr int kBatchColoringQ = 20;
constexpr int kBatchGridSide = 40;
constexpr double kDominatingLambda = 1.0;
constexpr double kHardcoreLambda = 0.3;
// Round caps of the adaptive batch rules.  R-hat stops at a doubling
// checkpoint (8, 16, ..., cap); at 128 most requests stop at the cap, so
// the slowest third of the calls, where latency_p90_ms lies, is one
// cluster rather than a mix of 128- and 256-round calls.
constexpr std::int64_t kRhatRoundCap = 128;
constexpr std::int64_t kCftpRoundCap = 256;

std::uint64_t request_seed(std::uint64_t workload_seed, std::int64_t id) {
  return util::mix64(util::mix64(workload_seed ^ 0x5eed5eed5eed5eedULL) +
                     static_cast<std::uint64_t>(id));
}

graph::GraphPtr random_regular(int n, int d, std::uint64_t seed, int index) {
  util::Rng rng(util::mix64(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  return graph::make_random_regular(n, d, rng);
}

Instance graph_instance(std::string label, graph::GraphPtr g) {
  Instance inst;
  inst.label = std::move(label);
  inst.g = std::move(g);
  return inst;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sparse-requests", "dense-colorings", "batch-mix"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed,
                       int threads) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  w.threads = threads;
  if (name == "sparse-requests") {
    int index = 0;
    for (const int n : kSparseSizes)
      w.instances.push_back(graph_instance(
          "regular-n" + std::to_string(n) + "-d" + std::to_string(kSparseDegree),
          random_regular(n, kSparseDegree, seed, index++)));
    w.prefix = 12;  // lcm of 3 graphs and 4 (algorithm, stop) variants
  } else if (name == "dense-colorings") {
    w.instances.push_back(graph_instance(
        "regular-n" + std::to_string(kDenseN) + "-d" +
            std::to_string(kDenseDegree),
        random_regular(kDenseN, kDenseDegree, seed, 0)));
    w.prefix = 5;  // chain, S=1, S=4, chain, S=1 (see request())
  } else if (name == "batch-mix") {
    w.instances.push_back(graph_instance(
        "regular-n" + std::to_string(kBatchColoringN) + "-d" +
            std::to_string(kBatchColoringDegree),
        random_regular(kBatchColoringN, kBatchColoringDegree, seed, 0)));
    // The grid is fixed; the seed reaches it only through the request seeds.
    Instance grid = graph_instance(
        "grid-" + std::to_string(kBatchGridSide) + "x" +
            std::to_string(kBatchGridSide),
        graph::make_grid(kBatchGridSide, kBatchGridSide));
    grid.fg = std::make_shared<const csp::FactorGraph>(
        csp::make_dominating_set(*grid.g, kDominatingLambda));
    grid.x0.assign(static_cast<std::size_t>(grid.g->num_vertices()), 1);
    grid.hardcore = std::make_shared<const mrf::Mrf>(
        mrf::make_hardcore(grid.g, kHardcoreLambda));
    w.instances.push_back(std::move(grid));
    w.prefix = 5;  // colorings, dominating, hardcore, colorings, hardcore
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return w;
}

Request Workload::request(std::int64_t id) const {
  Request r;
  r.id = id;
  r.options.seed = request_seed(seed, id);
  r.options.num_threads = threads;
  r.options.epsilon = 0.01;
  if (name == "sparse-requests") {
    r.call = Call::coloring;
    r.instance = static_cast<int>(id % 3);
    const bool luby = id % 2 == 0;
    const bool adaptive = (id / 2) % 2 == 1;
    r.options.algorithm =
        luby ? Algorithm::luby_glauber : Algorithm::local_metropolis;
    r.q = luby ? kSparseQLuby : kSparseQMetropolis;
    r.options.stop =
        adaptive ? chains::StopRule::automatic : chains::StopRule::fixed;
    r.variant = std::string(luby ? "lg" : "lm") + (adaptive ? "/auto" : "/fixed");
  } else if (name == "dense-colorings") {
    r.call = Call::coloring;
    r.q = kDenseQ;
    r.options.algorithm = Algorithm::local_metropolis;
    // The slowest variant (S=4) is one call in five, so latency_p90_ms lies
    // at its median rather than in the tail that host jitter makes.
    switch (id % 5) {
      case 0:
      case 3:
        r.variant = "chain";
        break;
      case 1:
      case 4:
        r.options.backend = Backend::local_network;
        r.variant = "network-s1";
        break;
      default:
        r.options.backend = Backend::local_network;
        r.options.num_shards = 4;
        r.variant = "network-s4";
        break;
    }
  } else {
    r.options.num_replicas = kBatchReplicas;
    // As in dense-colorings, the slowest variant (R-hat) is one call in five.
    switch (id % 5) {
      case 0:
      case 3:
        r.call = Call::many_colorings;
        r.q = kBatchColoringQ;
        r.options.algorithm = Algorithm::luby_glauber;
        r.variant = "colorings-lg";
        break;
      case 1:
        r.call = Call::many_csp;
        r.instance = 1;
        r.options.algorithm = Algorithm::local_metropolis;
        r.options.stop = chains::StopRule::rhat;
        r.options.rounds = kRhatRoundCap;
        r.variant = "dominating-lm-rhat";
        break;
      default:
        r.call = Call::many_hardcore;
        r.instance = 1;
        r.options.stop = chains::StopRule::automatic;
        r.options.rounds = kCftpRoundCap;
        r.variant = "hardcore-auto";
        break;
    }
  }
  return r;
}

Outcome call_facade(const Workload& w, const Request& r) {
  const Instance& inst = w.instances[static_cast<std::size_t>(r.instance)];
  Outcome o;
  if (r.call == Call::coloring) {
    core::SampleResult s = core::sample_coloring(inst.g, r.q, r.options);
    o.configs.push_back(std::move(s.config));
    o.rounds_used = s.rounds_used;
    o.budget_rounds = s.budget_rounds;
    o.feasible = s.feasible;
    return o;
  }
  core::BatchSampleResult b;
  if (r.call == Call::many_colorings)
    b = core::sample_many_colorings(inst.g, r.q, r.options);
  else if (r.call == Call::many_csp)
    b = core::sample_many_csp(*inst.fg, inst.x0, r.options);
  else
    b = core::sample_many(*inst.hardcore, r.options);
  o.configs = std::move(b.configs);
  o.rounds_used = b.rounds_used;
  o.budget_rounds = b.budget_rounds;
  o.feasible = b.feasible_count == static_cast<int>(o.configs.size());
  return o;
}

std::string check_feasible(const Workload& w, const Request& r,
                           const Outcome& o) {
  const graph::Graph& g =
      *w.instances[static_cast<std::size_t>(r.instance)].g;
  const int n = g.num_vertices();
  const int expected =
      r.call == Call::coloring ? 1 : r.options.num_replicas;
  if (static_cast<int>(o.configs.size()) != expected)
    return "wrong number of samples";
  if (!o.feasible) return "library reports an infeasible sample";
  const int q = r.call == Call::many_csp || r.call == Call::many_hardcore
                    ? 2
                    : r.q;
  for (const mrf::Config& x : o.configs) {
    if (static_cast<int>(x.size()) != n) return "sample has the wrong size";
    for (const int s : x)
      if (s < 0 || s >= q) return "spin out of range";
    for (int e = 0; e < g.num_edges(); ++e) {
      const int a = x[static_cast<std::size_t>(g.edge(e).u)];
      const int b = x[static_cast<std::size_t>(g.edge(e).v)];
      if ((r.call == Call::coloring || r.call == Call::many_colorings) &&
          a == b)
        return "coloring is not proper";
      if (r.call == Call::many_hardcore && a == 1 && b == 1)
        return "hardcore sample is not an independent set";
    }
    if (r.call == Call::many_csp)
      for (int v = 0; v < n; ++v) {
        const auto nb = g.neighbors(v);
        const bool covered =
            x[static_cast<std::size_t>(v)] == 1 ||
            std::any_of(nb.begin(), nb.end(), [&](int u) {
              return x[static_cast<std::size_t>(u)] == 1;
            });
        if (!covered) return "sample is not a dominating set";
      }
  }
  return "";
}

bool same_samples(const Outcome& a, const Outcome& b) {
  return a.configs == b.configs && a.rounds_used == b.rounds_used &&
         a.budget_rounds == b.budget_rounds;
}

double model_table_bytes(const Workload& w, const Request& r) {
  if (r.call == Call::many_csp) return 0.0;
  const graph::Graph& g =
      *w.instances[static_cast<std::size_t>(r.instance)].g;
  const double q = r.call == Call::many_hardcore ? 2.0 : r.q;
  return 8.0 * (static_cast<double>(g.num_edges()) * q * q +
                static_cast<double>(g.num_vertices()) * q);
}

}  // namespace e2ebench
