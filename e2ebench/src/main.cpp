// e2ebench — end-to-end benchmark of the sampler facade (src/core).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.json>]
//
// One client drives the facade in a closed loop: it sends request i+1 only
// after request i returned, and every call uses num_threads =
// min(nproc, kMaxThreads).  The requests and graphs come from --seed.  With
// --trace 0 the loop runs untraced and the end-to-end metrics are reported;
// with --trace 1 every
// request is also replayed through the public functions of each layer with
// one span per call (replay.hpp), and the per-layer metrics are reported.
//
// Outputs are checked: every sample must satisfy its model's constraints,
// the first requests must equal a num_threads = 1 recomputation made during
// set-up, and the replay must equal the facade bit for bit.  Any failure
// makes the run exit nonzero.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layer_loops.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

constexpr int kSetupRepeats = 3;
/// Thread cap of every call.  The benchmark runs on a few vCPUs of a shared
/// host: with a thread on every vCPU, a round's barrier waits for whichever
/// vCPU the host deschedules, and a bursty load on one core doubled the
/// sparse-requests p50.  Two threads still exercise the engine's barrier
/// and leave the other vCPUs to absorb that load.
constexpr int kMaxThreads = 2;
/// Every run makes at least this many calls, so the p90 has ten calls
/// beyond it; the digest and rounds_per_sample cover exactly these.
constexpr std::int64_t kMinCalls = 100;
/// Ends a timed loop that has its kMinCalls but runs far past --seconds.
constexpr double kLoopCapSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--trace-out") a.trace_out = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0))
    throw std::invalid_argument(
        "--seconds must be given and > 0 (BENCHMARK.json's run_seconds)");
  return a;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, CPU_COUNT(&set));
}

/// Prints the machine and build; returns why the build's timings would not
/// be representative, or an empty string.
std::string fingerprint(int nproc, int threads) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(LSAMPLE_AUDIT)
  const bool audit = true;
#else
  const bool audit = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::printf(
      "# fingerprint nproc=%d hardware_threads=%u call_threads=%d "
      "compiler=\"%s\" build_type=%s optimized=%d audit=%d sanitizer=%d\n",
      nproc, std::thread::hardware_concurrency(), threads, __VERSION__,
      E2EBENCH_BUILD_TYPE, optimized ? 1 : 0, audit ? 1 : 0, sanitized ? 1 : 0);
  if (!optimized) return "built without optimisation";
  if (audit) return "built with LSAMPLE_AUDIT (audit hooks change timings)";
  if (sanitized) return "built with a sanitizer (it changes timings)";
  return "";
}

double elapsed_s(std::int64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) / 1e9;
}

/// Whether a timed loop that made calls 0..i-1 goes on.  It runs at least
/// kMinCalls calls and --seconds seconds, and stops only after a whole
/// cycle of the request variants, so every run has the same variant mix.
bool more_calls(std::int64_t i, const Workload& w, std::int64_t t0,
                double seconds) {
  if (i % w.prefix != 0 || i < kMinCalls) return true;
  const double s = elapsed_s(t0);
  return s < seconds && s < kLoopCapSeconds;
}

/// The set-up a run repeats: generation, references at one thread, and a
/// warm-up of the same requests at the call thread count checked against
/// them.
struct Setup {
  Workload workload;
  std::vector<Outcome> references;
};

Setup set_up(const Args& args, int threads) {
  Setup s{make_workload(args.workload, args.seed, threads), {}};
  for (int i = 0; i < s.workload.prefix; ++i) {
    Request r = s.workload.request(i);
    r.options.num_threads = 1;
    Outcome ref = call_facade(s.workload, r);
    const std::string why = check_feasible(s.workload, r, ref);
    if (!why.empty())
      throw std::runtime_error("reference request " + std::to_string(i) +
                               ": " + why);
    s.references.push_back(std::move(ref));
  }
  for (int i = 0; i < s.workload.prefix; ++i)
    if (!same_samples(call_facade(s.workload, s.workload.request(i)),
                      s.references[static_cast<std::size_t>(i)]))
      throw std::runtime_error("warm-up request " + std::to_string(i) +
                               " differs from its one-thread reference");
  return s;
}

/// Checks one timed call; returns an empty string when it passes.
std::string check_call(const Setup& s, const Request& r, const Outcome& o) {
  std::string why = check_feasible(s.workload, r, o);
  if (why.empty() && r.id < static_cast<std::int64_t>(s.references.size()) &&
      !same_samples(o, s.references[static_cast<std::size_t>(r.id)]))
    why = "differs from its one-thread reference";
  return why;
}

struct Output {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
};

void note_failure(Output& out, const Request& r, const std::string& why) {
  ++out.failed;
  out.correct = false;
  std::printf("# FAILED request %lld (%s): %s\n",
              static_cast<long long>(r.id), r.variant.c_str(), why.c_str());
}

void print_metric(const Metric& m, std::int64_t samples) {
  std::printf("metric %-32s %14.6f %-14s n=%lld\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(samples));
}

// ---------------------------------------------------------------- untraced

Output run_untraced(const Setup& s, const Args& args, double setup_s) {
  Output out;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> variant_ms;
  std::map<std::string, std::vector<double>> variant_rounds;
  std::int64_t samples = 0;
  double rounds_weighted = 0.0;
  std::int64_t rounds_samples = 0;
  Digest digest;
  const std::int64_t t0 = now_ns();
  for (std::int64_t i = 0;
       more_calls(i, s.workload, t0, args.seconds); ++i) {
    const Request r = s.workload.request(i);
    ++out.attempted;
    const std::int64_t c0 = now_ns();
    try {
      const Outcome o = call_facade(s.workload, r);
      latency_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
      variant_ms[r.variant].push_back(latency_ms.back());
      variant_rounds[r.variant].push_back(static_cast<double>(o.rounds_used));
      const std::string why = check_call(s, r, o);
      if (!why.empty()) note_failure(out, r, why);
      samples += static_cast<std::int64_t>(o.configs.size());
      if (i < kMinCalls) {
        for (const auto& x : o.configs) digest.add(x);
        rounds_weighted += static_cast<double>(o.rounds_used) *
                           static_cast<double>(o.configs.size());
        rounds_samples += static_cast<std::int64_t>(o.configs.size());
      }
    } catch (const std::exception& e) {
      latency_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
      note_failure(out, r, std::string("threw: ") + e.what());
    }
  }
  const double loop_s = elapsed_s(t0);
  for (const auto& [variant, ms] : variant_ms) {
    const std::vector<double>& rounds = variant_rounds[variant];
    std::printf("# variant %-20s p50 %10.3f ms  p90 %10.3f ms  rounds_used "
                "mean %8.1f min %6.0f max %6.0f  n=%zu\n",
                variant.c_str(), median(ms), percentile(ms, 90.0), mean(rounds),
                *std::min_element(rounds.begin(), rounds.end()),
                *std::max_element(rounds.begin(), rounds.end()), ms.size());
  }
  const auto calls = static_cast<std::int64_t>(latency_ms.size());
  const double tail = tail_percentile(latency_ms.size());
  std::printf("# %lld calls in %.3f s; highest percentile with >= 10 calls "
              "beyond it: p%g\n",
              static_cast<long long>(calls), loop_s, tail);
  if (tail < 90.0) {
    out.correct = false;
    std::printf("# too few calls for a p90\n");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.metrics = {
      {"latency_p50_ms", percentile(latency_ms, 50.0), "ms"},
      {"latency_p90_ms", percentile(latency_ms, 90.0), "ms"},
      {"samples_per_s", static_cast<double>(samples) / loop_s, "1/s"},
      {"rounds_per_sample",
       rounds_samples > 0 ? rounds_weighted / static_cast<double>(rounds_samples)
                          : 0.0,
       "rounds"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
  const std::int64_t counts[] = {calls, calls, samples, rounds_samples,
                                 kSetupRepeats, 1};
  for (std::size_t k = 0; k < out.metrics.size(); ++k)
    print_metric(out.metrics[k], counts[k]);
  print_metric({"failed_frac",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                "fraction"},
               out.attempted);
  std::printf("digest %s over the first %lld requests\n", digest.hex().c_str(),
              static_cast<long long>(kMinCalls));
  return out;
}

// ------------------------------------------------------------------ traced

double median_or(const std::vector<double>& v, double fallback) {
  return v.empty() ? fallback : median(v);
}

Output run_traced(const Setup& s, const Args& args, int threads) {
  Output out;
  Trace trace;
  std::vector<double> facade_ms;
  std::vector<ReplayResult> replays;
  double table_bytes = 0.0;
  Digest digest;
  const std::int64_t t0 = now_ns();
  for (std::int64_t i = 0;
       more_calls(i, s.workload, t0, args.seconds); ++i) {
    const Request r = s.workload.request(i);
    ++out.attempted;
    try {
      const std::int64_t c0 = now_ns();
      const Outcome o = call_facade(s.workload, r);
      facade_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
      ReplayResult rr = replay(s.workload, r, trace);
      std::string why = check_call(s, r, rr.outcome);
      if (why.empty() && !same_samples(o, rr.outcome))
        why = "the replay differs from the facade";
      if (!why.empty()) note_failure(out, r, why);
      if (i < kMinCalls)
        for (const auto& x : rr.outcome.configs) digest.add(x);
      table_bytes = std::max(table_bytes, model_table_bytes(s.workload, r));
      replays.push_back(std::move(rr));
    } catch (const std::exception& e) {
      note_failure(out, r, std::string("threw: ") + e.what());
      return out;  // spans of a half-replayed request cannot be attributed
    }
  }
  const std::int64_t replay_ns = now_ns() - t0;

  LoopOptions lo;
  lo.threads = threads;
  lo.shard_worker = find_shard_worker();

  const std::vector<Span>& spans = trace.spans();
  const std::vector<std::int64_t> covered = trace.child_coverage();
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };

  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> imbalance;
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> stop_iv,
      payload_iv;
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    by_name[sp.name].push_back(ms(sp.duration()));
    if (sp.parent >= 0)
      children[static_cast<std::size_t>(sp.parent)].push_back(
          static_cast<int>(i));
    if (sp.name.rfind("chains.stop.", 0) == 0)
      stop_iv[sp.request].emplace_back(sp.start_ns, sp.end_ns);
    if (sp.name == "chains.payload")
      payload_iv[sp.request].emplace_back(sp.start_ns, sp.end_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "chains.replicas.batch" || children[i].empty())
      continue;
    std::vector<double> jobs;
    for (const int c : children[i])
      jobs.push_back(ms(spans[static_cast<std::size_t>(c)].duration()));
    imbalance.push_back(*std::max_element(jobs.begin(), jobs.end()) /
                        mean(jobs));
  }
  std::vector<double> diag_ms, payload_ms, unattributed_ms, root_ms;
  std::vector<double> diag_steps, rounds_used, budget_rounds;
  std::int64_t chain_barriers = 0;
  std::int64_t local_barriers = 0;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    const ReplayResult& rr = replays[k];
    const Span& root = spans[static_cast<std::size_t>(rr.root)];
    root_ms.push_back(ms(root.duration()));
    unattributed_ms.push_back(facade_ms[k] -
                              ms(covered[static_cast<std::size_t>(rr.root)]));
    if (const auto it = stop_iv.find(root.request); it != stop_iv.end())
      diag_ms.push_back(ms(covered_length(it->second, root.start_ns,
                                          root.end_ns)));
    if (const auto it = payload_iv.find(root.request); it != payload_iv.end())
      payload_ms.push_back(ms(covered_length(it->second, root.start_ns,
                                             root.end_ns)));
    if (rr.diag_steps >= 0)
      diag_steps.push_back(static_cast<double>(rr.diag_steps));
    rounds_used.push_back(static_cast<double>(rr.outcome.rounds_used));
    budget_rounds.push_back(static_cast<double>(rr.outcome.budget_rounds));
    chain_barriers += rr.chain_barriers;
    local_barriers += rr.local_barriers;
  }
  lo.stop_rows = diag_ms.empty();
  lo.batch_rows = imbalance.empty();
  const Metrics loops = measure_layer_loops(s.workload, lo);
  double barrier_ns = 0.0;
  for (const Metric& m : loops)
    if (m.name == "chains.engine.barrier_ns") barrier_ns = m.value;

  // Layer shares of the replayed request time (wall-time self time per
  // layer, so concurrent replica jobs split their batch).  The barrier time
  // inside chain steps and network rounds cannot be timed from outside; it
  // is estimated as measured barrier cost x barrier count and moved from
  // chains / local to chains.engine.
  std::map<std::string, double> layer_ns = trace.layer_wall_ns();
  double total_ns = 0.0;
  for (const Span& sp : spans)
    if (sp.parent < 0) total_ns += static_cast<double>(sp.duration());
  const auto move_barriers = [&](const char* layer, std::int64_t count) {
    const double est = std::min(layer_ns[layer], barrier_ns * count);
    layer_ns[layer] -= est;
    layer_ns["chains.engine"] += est;
  };
  move_barriers("chains", chain_barriers);
  move_barriers("local", local_barriers);
  const auto share = [&](const char* layer) {
    return 100.0 * layer_ns[layer] / total_ns;
  };

  const double facade_p50 = median(facade_ms);
  out.metrics = {
      {"mrf.build_ms", median_or(by_name["mrf.build"], 0.0), "ms"},
      {"mrf.compile_ms", median_or(by_name["mrf.compile"], 0.0), "ms"},
      {"mrf.table_bytes", table_bytes, "bytes_computed"},
      {"chains.payload_ms", median_or(payload_ms, 0.0), "ms"},
      {"chains.stop.rounds_used", mean(rounds_used), "count"},
      {"chains.stop.budget_rounds", mean(budget_rounds), "count"},
      {"core.unattributed_ms", median(unattributed_ms), "ms"},
      {"trace.overhead_pct", 100.0 * (median(root_ms) / facade_p50 - 1.0), "%"},
      {"share.core_pct", share("core"), "%"},
      {"share.mrf_pct", share("mrf"), "%"},
      {"share.chains_engine_pct", share("chains.engine"), "%"},
      {"share.chains_pct", share("chains"), "%"},
      {"share.local_pct", share("local"), "%"},
      {"share.csp_pct", share("csp"), "%"},
  };
  if (!diag_ms.empty()) {
    out.metrics.push_back({"chains.stop.diag_ms", median(diag_ms), "ms"});
    out.metrics.push_back({"chains.stop.diag_steps", mean(diag_steps), "count"});
  }
  if (!imbalance.empty()) {
    out.metrics.push_back({"chains.replicas.batch_ms",
                           median(by_name["chains.replicas.batch"]), "ms"});
    out.metrics.push_back({"chains.replicas.imbalance", median(imbalance),
                           "ratio"});
  }
  out.metrics.insert(out.metrics.end(), loops.begin(), loops.end());
  std::printf("# %zu requests replayed in %.3f s, %zu spans; untraced facade "
              "p50 %.3f ms, replay p50 %.3f ms\n",
              replays.size(), static_cast<double>(replay_ns) / 1e9,
              spans.size(), facade_p50, median(root_ms));
  for (const Metric& m : out.metrics)
    print_metric(m, static_cast<std::int64_t>(replays.size()));
  std::printf("digest %s over the first %lld requests\n", digest.hex().c_str(),
              static_cast<long long>(kMinCalls));
  if (!args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    f << trace.chrome_json();
    if (!f) throw std::runtime_error("cannot write " + args.trace_out);
    std::printf("# trace written to %s\n", args.trace_out.c_str());
  }
  return out;
}

void print_result(const Output& out) {
  std::string json = "{\"correct\": ";
  json += out.correct && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Args args = parse_args(argc, argv);
  const int nproc = affinity_cpus();
  const int threads = std::min(nproc, kMaxThreads);
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::string invalid = fingerprint(nproc, threads);
  if (!invalid.empty()) {
    std::fprintf(stderr, "e2ebench: refusing to run: %s\n", invalid.c_str());
    return 3;
  }
  std::printf("# shard_worker %s\n", find_shard_worker().c_str());

  // setup_s is the median of kSetupRepeats identical set-ups, each timed on
  // its own, so that one slow start does not move it; the time from process
  // start to the first timed request is printed beside it.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t s0 = now_ns();
    setup.emplace(set_up(args, threads));
    setup_s.push_back(elapsed_s(s0));
  }
  std::printf("# set-up s (generation, %d one-thread references, warm-up):",
              setup->workload.prefix);
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("; process start to first timed request %.3f s\n",
              elapsed_s(process_start));
  for (const Instance& inst : setup->workload.instances)
    std::printf("# instance %s n=%d m=%d max_degree=%d\n", inst.label.c_str(),
                inst.g->num_vertices(), inst.g->num_edges(),
                inst.g->max_degree());

  const Output out = args.trace ? run_traced(*setup, args, threads)
                                : run_untraced(*setup, args, median(setup_s));
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
  print_result(out);
  return out.correct && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
