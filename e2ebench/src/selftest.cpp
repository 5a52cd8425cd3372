// Tests of the benchmark's own arithmetic: tail-percentile choice, digest
// order-sensitivity, and span self time.  Exits nonzero on any failure.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_tail_percentile() {
  using e2ebench::samples_beyond;
  using e2ebench::tail_percentile;
  check(tail_percentile(19) == 0.0, "19 samples: no percentile has 10 beyond");
  check(tail_percentile(20) == 50.0, "20 samples: p50 has 10 beyond");
  check(tail_percentile(99) == 50.0, "99 samples: p90 has only 9 beyond");
  check(tail_percentile(100) == 90.0, "100 samples: p90 has 10 beyond");
  check(tail_percentile(999) == 90.0, "999 samples: p99 has only 9 beyond");
  check(tail_percentile(1000) == 99.0, "1000 samples: p99 has 10 beyond");
  check(tail_percentile(10000) == 99.9, "10000 samples: p99.9 has 10 beyond");
  check(samples_beyond(100, 90.0) == 10, "nearest rank of p90 in 100 is 90");
  check(samples_beyond(101, 90.0) == 10, "nearest rank of p90 in 101 is 91");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(e2ebench::percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
  check(e2ebench::percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  check(e2ebench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void test_digest_order() {
  const std::vector<int> a = {0, 1, 2, 3};
  const std::vector<int> b = {3, 2, 1, 0};
  e2ebench::Digest ab, ba, ab2, joined, split;
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  ab2.add(a);
  ab2.add(b);
  check(ab.value() == ab2.value(), "same samples, same order: same digest");
  check(ab.value() != ba.value(), "swapped request order changes the digest");
  // Same spins, different sample boundaries.
  joined.add(std::vector<int>{0, 1, 2, 3, 3, 2, 1, 0});
  check(joined.value() != ab.value(), "sample boundaries enter the digest");
  e2ebench::Digest one_spin;
  one_spin.add(std::vector<int>{0, 1, 2, 4});
  one_spin.add(b);
  check(one_spin.value() != ab.value(), "one changed spin changes the digest");
  check(ab.hex().size() == 16, "digest prints as 16 hex digits");
}

void test_self_time() {
  // root [0, 100): child A [10, 40) with grandchild [15, 25); children B
  // [30, 60) and C [50, 70) overlap A and each other, as replica jobs of one
  // batch do.  Covered by root's children: [10, 70) = 60.
  e2ebench::Trace t;
  const int root = t.add("core.request", 0, 100, -1, 0);
  const int a = t.add("chains.replicas.batch", 10, 40, root, 0);
  const int g = t.add("chains.payload", 15, 25, a, 0, 1);
  const int b = t.add("mrf.compile", 30, 60, root, 0);
  const int c = t.add("chains.stop.cftp", 50, 70, root, 0, 2);
  const std::vector<std::int64_t> self = t.self_times();
  check(self[static_cast<std::size_t>(root)] == 40, "root self time 100 - 60");
  check(self[static_cast<std::size_t>(a)] == 20, "A self time 30 - 10");
  check(self[static_cast<std::size_t>(g)] == 10, "leaf self time = duration");
  check(self[static_cast<std::size_t>(b)] == 30, "B self time = duration");
  check(self[static_cast<std::size_t>(c)] == 20, "C self time = duration");
  check(t.child_coverage()[static_cast<std::size_t>(root)] == 60,
        "coverage is the union of overlapping children");
  // A child running past its parent counts only inside the parent.
  check(e2ebench::covered_length({{-5, 5}, {90, 120}}, 0, 100) == 15,
        "coverage clips children to the parent");
  check(e2ebench::layer_of("chains.engine.spawn") == "chains.engine",
        "engine spans form their own layer");
  check(e2ebench::layer_of("chains.payload") == "chains", "layer prefix");
  check(e2ebench::layer_of("core.request") == "core", "core layer");
  // Wall-time self times: root's children cover 60 of their summed 80, so
  // each of them (and A's grandchild) counts at 3/4.
  const std::vector<double> wall = t.wall_self_times();
  check(wall[static_cast<std::size_t>(root)] == 40.0, "root wall self 40");
  check(wall[static_cast<std::size_t>(a)] == 15.0, "A wall self 20 * 3/4");
  check(wall[static_cast<std::size_t>(g)] == 7.5, "leaf wall self 10 * 3/4");
  check(wall[static_cast<std::size_t>(b)] == 22.5, "B wall self 30 * 3/4");
  check(wall[static_cast<std::size_t>(c)] == 15.0, "C wall self 20 * 3/4");
  const std::string json = t.chrome_json();
  check(json.find("\"ph\":\"X\"") != std::string::npos &&
            json.find("\"traceEvents\"") != std::string::npos,
        "Chrome trace-event JSON");
}

void test_lane_shares() {
  // Two requests.  The first spends [10, 90) in a batch whose four replica
  // jobs run concurrently on worker lanes, [10, 90) each: 320 ns of lane
  // time in 80 ns of wall time.  Summing lane durations would give chains
  // 400% of the request; split by wall time, the layers share exactly the
  // 200 ns the two roots took.
  e2ebench::Trace t;
  const int root = t.add("core.request", 0, 100, -1, 0);
  (void)t.add("mrf.compile", 0, 10, root, 0);
  const int batch = t.add("chains.replicas.batch", 10, 90, root, 0);
  for (int lane = 1; lane <= 4; ++lane)
    (void)t.add("csp.payload", 10, 90, batch, 0, lane);
  const int second = t.add("core.request", 100, 200, -1, 1);
  (void)t.add("chains.payload", 100, 150, second, 1);
  const std::map<std::string, double> layers = t.layer_wall_ns();
  double total = 0.0;
  for (const auto& [layer, ns] : layers) total += ns;
  check(total == 200.0, "layer shares sum to 100% of the roots' time");
  check(layers.at("csp") == 80.0, "four lanes split their batch's 80 ns");
  check(layers.at("chains") == 50.0, "batch self 0 plus payload 50");
  check(layers.at("mrf") == 10.0, "compile 10");
  check(layers.at("core") == 60.0, "root self times 10 + 50");
  const std::vector<double> wall = t.wall_self_times();
  check(wall[static_cast<std::size_t>(batch) + 1] == 20.0,
        "each lane counts a quarter of the batch");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_digest_order();
  test_self_time();
  test_lane_shares();
  if (g_failures != 0) {
    std::fprintf(stderr, "e2ebench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("e2ebench_selftest: all checks passed\n");
  return 0;
}
