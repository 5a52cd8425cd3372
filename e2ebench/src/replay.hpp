// The traced replay: each request re-run through the public functions of
// the layers the facade (src/core/sampler.cpp) calls, in the facade's order,
// with one span per call.  The replay must return the facade's samples and
// rounds_used bit for bit; the benchmark fails the request otherwise, which
// keeps this decomposition from drifting away from the facade.
#pragma once

#include <cstdint>
#include <memory>

#include "chains/stopping.hpp"
#include "core/sampler.hpp"
#include "mrf/compiled.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2ebench {

struct ReplayResult {
  Outcome outcome;
  int root = -1;  ///< the request's "core.request" span
  /// Chain steps the stopping rule ran (CFTP: sweeps); -1 without a rule.
  std::int64_t diag_steps = -1;
  /// parallel_for calls on an attached engine, counted from the calls the
  /// replay makes (two per chain step, one per network round, one per
  /// replica batch); multiplied by the measured barrier cost to estimate
  /// the barrier time inside chains and local spans.
  std::int64_t chain_barriers = 0;
  std::int64_t local_barriers = 0;
};

[[nodiscard]] ReplayResult replay(const Workload& w, const Request& r,
                                  Trace& trace);

/// The facade's coupling stopping decision for an MRF (4 coupled pairs,
/// payload init vs the adversarial extremal init), counting every chain
/// step into *steps.
[[nodiscard]] lsample::chains::StopDecision coupling_decision(
    const std::shared_ptr<const lsample::mrf::CompiledMrf>& cm,
    const lsample::mrf::Mrf& m, const lsample::mrf::Config& x0,
    lsample::core::Algorithm algorithm, std::uint64_t seed,
    std::int64_t max_rounds, int num_threads, std::int64_t* steps);

[[nodiscard]] std::unique_ptr<lsample::chains::Chain> make_mrf_chain(
    lsample::core::Algorithm algorithm,
    std::shared_ptr<const lsample::mrf::CompiledMrf> cm, std::uint64_t seed);

}  // namespace e2ebench
