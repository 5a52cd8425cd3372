// Summary statistics and the sample digest of the end-to-end benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace e2ebench {

/// Samples that lie strictly beyond the nearest-rank p-th percentile of
/// `count` samples (rank ceil(p/100 * count)).
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9 that still has at
/// least ten samples beyond it, so a tail figure rests on more than a few
/// outliers; 0 when even the median has fewer than ten beyond it.
[[nodiscard]] double tail_percentile(std::size_t count);

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// An order-sensitive 64-bit fold of sample configurations: two runs that
/// return the same samples in the same request order print the same digest.
class Digest {
 public:
  void add(std::span<const int> config);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

}  // namespace e2ebench
