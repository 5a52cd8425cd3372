// Per-layer rows measured by loops over the workload's own model inside the
// traced run: kernels, engine barrier and spawn, chain steps, network
// rounds per transport, partition and CSP compile.  These layers run for
// microseconds per call, too short to time one call at a time.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Named error for a missing shard_worker binary: the process-transport
/// row cannot run without it, and failing here beats a hang later.
class ShardWorkerMissing : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// $LSAMPLE_SHARD_WORKER if set, else the shard_worker built next to the
/// benchmark; throws ShardWorkerMissing when neither is executable.
[[nodiscard]] std::string find_shard_worker();

struct LoopOptions {
  int threads = 1;  ///< the thread count of the timed calls
  std::string shard_worker;
  /// Measure the stopping-rule and replica-batch rows here because the
  /// workload's requests never run them.
  bool stop_rows = false;
  bool batch_rows = false;
};

[[nodiscard]] Metrics measure_layer_loops(const Workload& w,
                                          const LoopOptions& options);

}  // namespace e2ebench
