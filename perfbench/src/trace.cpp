#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::begin(const std::string& layer, std::int64_t op) {
  const int id = static_cast<int>(spans_.size());
  SpanRecord record;
  record.layer = layer;
  record.op = op;
  record.parent = stack_.empty() ? -1 : stack_.back().id;
  spans_.push_back(std::move(record));
  stack_.push_back(Frame{id, Clock::now(), 0.0});
  return id;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  if (stack_.empty() || stack_.back().id != id) {
    // Called from Span's destructor, so it must not throw.
    std::fprintf(stderr, "perfbench tracer: spans closed out of order\n");
    std::abort();
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double dur_ns = ns_between(frame.start, now);
  SpanRecord& record = spans_[static_cast<std::size_t>(id)];
  record.start_us = ns_between(origin_, frame.start) / 1e3;
  record.dur_us = dur_ns / 1e3;
  self_ns_[record.layer] += dur_ns - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur_ns;
}

void Tracer::attribute(const std::string& layer, double ns) {
  if (stack_.empty()) throw std::logic_error("perfbench tracer: attribute outside a span");
  self_ns_[layer] += ns;
  stack_.back().child_ns += ns;
  spans_[static_cast<std::size_t>(stack_.back().id)].args[layer + "_ms"] += ns / 1e6;
}

void Tracer::add(const std::string& layer, double ns) { self_ns_[layer] += ns; }

void Tracer::record(const std::string& layer, std::int64_t op, Clock::time_point start,
                    Clock::time_point end, int tid, std::map<std::string, double> args) {
  SpanRecord record;
  record.layer = layer;
  record.op = op;
  record.tid = tid;
  record.start_us = ns_between(origin_, start) / 1e3;
  record.dur_us = ns_between(start, end) / 1e3;
  record.args = std::move(args);
  spans_.push_back(std::move(record));
}

std::map<std::string, double> Tracer::self_ms() const {
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : self_ns_) out[layer] = ns / 1e6;
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string cat = s.layer.substr(0, s.layer.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld",
                 i == 0 ? "" : ",\n", s.layer.c_str(), cat.c_str(), s.tid, s.start_us, s.dur_us,
                 i, s.parent, static_cast<long long>(s.op));
    for (const auto& [key, value] : s.args) std::fprintf(f, ",\"%s\":%.6g", key.c_str(), value);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
