// Shared pieces of the end-to-end benchmark: command-line arguments, the
// workload interface, and what a timed phase reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "local/engine.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path of a traced run ("" = none)
};

/// What one timed phase produced.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Time the throughput is measured over: the sum of op walls for a
  /// closed loop, first due time to last completion for an open loop.
  double busy_ns = 0.0;
  /// Wall of the whole phase, correctness checks included; in a traced
  /// phase the per-layer self times plus trace.unattributed_ms sum to it.
  /// (An open loop sums per-job latency instead: see serve.cpp.)
  double wall_ns = 0.0;
  std::vector<double> latency_ms;  // one per successful op
  /// A closed loop's throughput per whole op cycle (the cycle's ops over
  /// the sum of their walls); ops_per_s is the median, so a host stall
  /// moves one cycle, not the figure.  Empty for an open loop.
  std::vector<double> cycle_ops_per_s;
  /// Per-layer counts and gauges (exact RunResult / RepairStats / ...
  /// values), reported only by traced runs.
  std::map<std::string, double> counters;
  std::vector<std::string> errors;  // first few failure descriptions
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The least number of times set-up runs per process (it also repeats
  /// for at least a second); setup_s is the median.
  virtual int setup_reps() const = 0;

  /// Generates every input (graphs, plans, reference results) from the
  /// seed, replacing any earlier set-up.  Spans go to `tracer` if given.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;

  /// Runs the timed loop for about `seconds`, checking every op.
  virtual Phase run(double seconds, Tracer* tracer) = 0;
};

std::unique_ptr<Workload> make_simulate();
std::unique_ptr<Workload> make_serve();
std::unique_ptr<Workload> make_churn();
std::unique_ptr<Workload> make_certify();

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Records a failed op (keeping the first few descriptions).
void fail(Phase& phase, const std::string& what);

/// Nearest-rank percentile: the sample of 1-based rank ceil(q·N).
double percentile(std::vector<double> samples, double q);

/// Every RunResult field that engine equivalence covers (timings excluded).
bool same_run(const dmm::local::RunResult& a, const dmm::local::RunResult& b);

/// Adds a run's exact counts to the phase's local.* counters.
void count_run(Phase& phase, const dmm::local::RunResult& r);

}  // namespace perfbench
