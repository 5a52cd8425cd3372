#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace e2ebench {

namespace {

std::size_t nearest_rank(std::size_t count, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 count);
}

std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::size_t samples_beyond(std::size_t count, double p) {
  if (count == 0) return 0;
  return count - nearest_rank(count, p);
}

double tail_percentile(std::size_t count) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    if (samples_beyond(count, p) >= 10) best = p;
  return best;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t k = nearest_rank(values.size(), p) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Digest::add(std::span<const int> config) {
  // The length goes in first so that concatenations of different splits
  // never collide by construction.
  h_ = mix(h_ ^ (0x9e3779b97f4a7c15ULL + config.size()));
  for (const int s : config)
    h_ = mix(h_ + static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) +
             0x632be59bd9b4e019ULL);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace e2ebench
