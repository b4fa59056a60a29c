// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed around calls into the library's public
// functions from the benchmark's own code.  Each span names the layer it
// measures ("local.send", "dyn.apply", ...); when a span closes, its self
// time — duration minus the time its child spans cover — is added to that
// layer's total.  Phases the library reports itself (RunResult's init /
// send / receive nanoseconds) are carved out of the open span with
// attribute(), so they count once, under their own layer.
//
// Tracing is off when the benchmark holds no Tracer: Span and every helper
// take a nullable pointer and do nothing for nullptr.  All recording
// happens on one thread (the workload's caller / load generator).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

class Tracer {
 public:
  Tracer();

  /// Opens a span of `layer` (caused by the innermost open span) and
  /// returns its id.  `op` groups the spans of one benchmark operation.
  int begin(const std::string& layer, std::int64_t op);

  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  /// Moves `ns` of the innermost open span's self time to `layer`.
  void attribute(const std::string& layer, double ns);

  /// Adds `ns` to `layer` with no enclosing span: for work that ran on
  /// another thread and is known only from its result (service sessions).
  void add(const std::string& layer, double ns);

  /// Records a complete span measured elsewhere (a service session), for
  /// the exported trace only; it contributes no self time.
  void record(const std::string& layer, std::int64_t op, Clock::time_point start,
              Clock::time_point end, int tid, std::map<std::string, double> args);

  /// Self time per layer in milliseconds.
  std::map<std::string, double> self_ms() const;

  std::size_t span_count() const noexcept { return spans_.size(); }

  /// Writes every recorded span as Chrome Trace Event JSON (viewable in
  /// Perfetto or chrome://tracing).  Returns false when the file cannot
  /// be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string layer;
    std::int64_t op = 0;
    int parent = -1;
    int tid = 1;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::map<std::string, double> args;
  };
  struct Frame {
    int id = 0;
    Clock::time_point start;
    double child_ns = 0.0;
  };

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<Frame> stack_;
  std::map<std::string, double> self_ns_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const std::string& layer, std::int64_t op = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(layer, op) : -1) {}
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void close() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->end(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
