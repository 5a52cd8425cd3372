// In-memory span recorder for the traced replay.
//
// A span is one call into a layer, timed from outside around the public
// function: name "<layer>.<what>", start and end on the steady clock, the
// span that caused it, and the request it belongs to.  Spans stay in memory
// and are written out as Chrome trace-event JSON (Perfetto,
// chrome://tracing) when the benchmark ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench {

[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   ///< index of the causing span; -1 for a request root
  int request = -1;  ///< request id shared by every span of one request
  int lane = 0;      ///< display row: 0 for the caller, 1 + r for replica r

  [[nodiscard]] std::int64_t duration() const noexcept {
    return end_ns - start_ns;
  }
};

/// Length of the union of the intervals, clipped to [lo, hi].  Children of
/// a batch run concurrently, so their durations overlap and must not be
/// summed.
[[nodiscard]] std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi);

/// The layer a span belongs to: the text before the first '.', except that
/// "chains.engine.*" is its own layer, "chains.engine".
[[nodiscard]] std::string_view layer_of(std::string_view span_name) noexcept;

class Trace {
 public:
  /// Opens a span starting now; close it with end().
  int begin(std::string name, int parent, int request);
  void end(int id);
  /// Records an already-timed span (replica jobs time themselves on worker
  /// threads and are added after their batch returns).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int request, int lane = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per span: its duration minus the part of it covered by its children.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;
  /// Per span: its self time in wall time of its root.  Children that
  /// overlap (the replica jobs of one batch) split the wall time they cover
  /// in proportion to their durations, so the values sum to the summed
  /// durations of the roots and per-layer shares of them sum to 100%.
  [[nodiscard]] std::vector<double> wall_self_times() const;
  /// wall_self_times() summed per layer (layer_of), in ns.
  [[nodiscard]] std::map<std::string, double> layer_wall_ns() const;
  /// Per span: the part of its interval covered by its children.
  [[nodiscard]] std::vector<std::int64_t> child_coverage() const;

  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Trace& trace, std::string name, int parent, int request)
      : trace_(trace), id_(trace.begin(std::move(name), parent, request)) {}
  ~SpanScope() { trace_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Trace& trace_;
  int id_;
};

}  // namespace e2ebench
