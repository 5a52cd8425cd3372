// The benchmark's workloads: instances generated from the workload seed, the
// request list, one facade call per request, and the output checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sampler.hpp"
#include "csp/factor_graph.hpp"
#include "graph/graph.hpp"
#include "mrf/mrf.hpp"

namespace e2ebench {

namespace core = lsample::core;
namespace csp = lsample::csp;
namespace graph = lsample::graph;
namespace mrf = lsample::mrf;

/// The facade entry point a request calls.
enum class Call {
  coloring,        ///< core::sample_coloring
  many_colorings,  ///< core::sample_many_colorings
  many_csp,        ///< core::sample_many_csp (dominating sets)
  many_hardcore,   ///< core::sample_many on a prebuilt hardcore Mrf
};

/// One input graph with the models built on it once, outside any request
/// (the batch entry points take a model, not a graph).
struct Instance {
  std::string label;
  graph::GraphPtr g;
  std::shared_ptr<const mrf::Mrf> hardcore;   ///< many_hardcore requests
  std::shared_ptr<const csp::FactorGraph> fg;  ///< many_csp requests
  csp::Config x0;                              ///< all-chosen dominating set
};

struct Request {
  std::int64_t id = 0;
  Call call = Call::coloring;
  int instance = 0;
  int q = 0;  ///< colors (coloring calls)
  core::SamplerOptions options;
  std::string variant;  ///< short label for reports
};

/// A facade result reduced to what the checks compare.
struct Outcome {
  std::vector<mrf::Config> configs;  ///< one per sample, replica order
  std::int64_t rounds_used = 0;
  std::int64_t budget_rounds = 0;
  bool feasible = false;  ///< the library's own feasibility flag(s)
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int threads = 1;  ///< num_threads of every timed call
  std::vector<Instance> instances;
  /// Requests recomputed at num_threads = 1 during set-up; covers one full
  /// cycle of the request variants.
  int prefix = 0;

  [[nodiscard]] Request request(std::int64_t id) const;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the workload's instances from `seed`; throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed,
                                     int threads);

/// One facade call.
[[nodiscard]] Outcome call_facade(const Workload& w, const Request& r);

/// Checks every sample against the model's constraints directly (not
/// through the library); returns an empty string when all hold.
[[nodiscard]] std::string check_feasible(const Workload& w, const Request& r,
                                         const Outcome& o);

/// Same configurations, rounds_used and budget, bit for bit.
[[nodiscard]] bool same_samples(const Outcome& a, const Outcome& b);

/// Activity-table bytes of the Mrf a coloring request builds (one q*q
/// matrix per edge plus n*q vertex activities, as doubles); computed from
/// n, m and q, not measured.  0 for requests that build no Mrf.
[[nodiscard]] double model_table_bytes(const Workload& w, const Request& r);

}  // namespace e2ebench
