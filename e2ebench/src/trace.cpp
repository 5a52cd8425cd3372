#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace e2ebench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before reach is already counted
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b <= a) continue;
    covered += b - a;
    reach = b;
  }
  return covered;
}

std::string_view layer_of(std::string_view span_name) noexcept {
  constexpr std::string_view engine = "chains.engine";
  if (span_name.substr(0, engine.size()) == engine) return engine;
  return span_name.substr(0, span_name.find('.'));
}

int Trace::begin(std::string name, int parent, int request) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent, request);
}

void Trace::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int Trace::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
               int parent, int request, int lane) {
  if (parent >= static_cast<int>(spans_.size()))
    throw std::invalid_argument("a span's parent must be recorded first");
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, request, lane});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Trace::child_coverage() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    covered[i] = covered_length(std::move(children[i]), spans_[i].start_ns,
                                spans_[i].end_ns);
  return covered;
}

std::vector<std::int64_t> Trace::self_times() const {
  std::vector<std::int64_t> self = child_coverage();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].duration() - self[i];
  return self;
}

std::vector<double> Trace::wall_self_times() const {
  const std::vector<std::int64_t> covered = child_coverage();
  std::vector<std::int64_t> child_sum(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_sum[static_cast<std::size_t>(s.parent)] += s.duration();
  // scale[i]: wall time of the root per ns of span i.  A parent always
  // precedes its children (add() takes an existing parent), so one forward
  // pass sees every parent's scale before its children.
  std::vector<double> scale(spans_.size(), 1.0);
  std::vector<double> out(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) {
      const auto pi = static_cast<std::size_t>(p);
      scale[i] = scale[pi];
      if (child_sum[pi] > 0)
        scale[i] *= static_cast<double>(covered[pi]) /
                    static_cast<double>(child_sum[pi]);
    }
    out[i] = scale[i] * static_cast<double>(spans_[i].duration() - covered[i]);
  }
  return out;
}

std::map<std::string, double> Trace::layer_wall_ns() const {
  const std::vector<double> self = wall_self_times();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[std::string(layer_of(spans_[i].name))] += self[i];
  return out;
}

std::string Trace::chrome_json() const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view layer = layer_of(s.name);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%d}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<int>(layer.size()), layer.data(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.duration()) / 1e3, s.lane, i, s.parent,
                  s.request);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace e2ebench
