// dmm_perfbench — end-to-end benchmark of the dmm library through its
// public API.  One process runs one workload:
//
//   dmm_perfbench --workload simulate|serve|churn|certify --seed N --seconds S
//                 --trace 0|1 [--trace-out trace.json]
//
// The inputs are generated from --seed alone.  Set-up runs repeatedly, at
// least a second and a per-workload number of times (the reported setup_s
// is the median); after a short untimed warm-up the timed loop runs for S
// seconds with every op checked.
// With --trace 1 the first half of the time runs untraced and the second
// half traced, and the traced half's spans give the per-layer split.  The
// last line of standard output is one JSON object of raw values;
// perfbench/run.py turns it into the benchmark result (names and units
// come from BENCHMARK.json).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr double kSetupSeconds = 1.0;  // least time set-up repeats for

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dmm_perfbench: %s\n"
               "usage: dmm_perfbench --workload simulate|serve|churn|certify --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0) {
    usage("--workload, --seed and --seconds > 0 are required");
  }
  return args;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ops_per_s(const Phase& p) {
  if (!p.cycle_ops_per_s.empty()) return median(p.cycle_ops_per_s);
  return p.busy_ns > 0 ? static_cast<double>(p.attempted - p.failed) / (p.busy_ns / 1e9) : 0.0;
}

/// Keeps freed memory in the process: glibc otherwise unmaps large blocks
/// and trims the heap, so every engine run and job faults its buffers back
/// in, at a cost set by the host's memory management rather than by the
/// library.  On a shared 4-vCPU VM this made simulate ~12% faster and
/// halved its run-to-run spread.
void keep_freed_memory() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum on 64-bit
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

/// Pins the process, and every thread it starts later, to the CPU it is
/// running on.  serve's generator and scheduler hand each job's graph and
/// result from one thread to the other; on a shared VM, with the two
/// threads free to run on different vCPUs, serve's p50 spread about twice
/// as wide from run to run as on one.  The other workloads run one thread
/// and only lose migrations.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "simulate") return make_simulate();
  if (name == "serve") return make_serve();
  if (name == "churn") return make_churn();
  if (name == "certify") return make_certify();
  usage("unknown workload " + name);
}

int run(const Args& args) {
  keep_freed_memory();
  pin_to_current_cpu();
  std::unique_ptr<Workload> workload = make(args.workload);
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;

  // Set-up repeats until it has run setup_reps() times and for at least
  // kSetupSeconds, and setup_s is the median: a set-up of a few ms, timed
  // only over the process's first tens of ms, read up to 40% slow in some
  // runs.  A traced run then sets up once more, traced, for the split.
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < workload->setup_reps() ||
         ns_between(setup_start, Clock::now()) < kSetupSeconds * 1e9) {
    const Clock::time_point start = Clock::now();
    workload->setup(args.seed, nullptr);
    setup_s.push_back(ns_between(start, Clock::now()) / 1e9);
  }
  if (traced != nullptr) workload->setup(args.seed, traced);

  // Warm-up: caches fill, lazy set-up finishes and the CPU settles before
  // anything is timed.  Its ops are checked like every other op.
  std::vector<Phase> phases;
  phases.push_back(workload->run(std::min(1.0, args.seconds / 10), nullptr));

  std::map<std::string, double> values;
  Phase measured;
  if (!args.trace) {
    measured = workload->run(args.seconds, nullptr);
    phases.push_back(measured);
  } else {
    // Untraced half first, then the traced half: the ratio of their
    // throughputs is the tracing overhead.
    const Phase plain = workload->run(args.seconds / 2, nullptr);
    const std::map<std::string, double> before = tracer.self_ms();
    measured = workload->run(args.seconds / 2, &tracer);
    phases.push_back(plain);
    phases.push_back(measured);
    std::map<std::string, double> layers = tracer.self_ms();
    double covered = 0.0;
    for (auto& [layer, ms] : layers) {
      const auto it = before.find(layer);
      covered += ms - (it != before.end() ? it->second : 0.0);
      values[layer + "_ms"] = ms;
    }
    const double wall_ms = measured.wall_ns / 1e6;
    values["trace.wall_ms"] = wall_ms;
    values["trace.unattributed_ms"] = wall_ms - covered;
    values["trace.spans"] = static_cast<double>(tracer.span_count());
    const double traced_rate = ops_per_s(measured);
    values["trace.overhead_pct"] =
        traced_rate > 0 ? (ops_per_s(plain) / traced_rate - 1.0) * 100.0 : 0.0;
    for (const auto& [name, value] : measured.counters) values[name] = value;
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "dmm_perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) std::fprintf(stderr, "dmm_perfbench: FAILED %s\n", e.c_str());
  }
  values["ops_per_s"] = ops_per_s(measured);
  values["latency_p50_ms"] = percentile(measured.latency_ms, 0.50);
  values["latency_p99_ms"] = percentile(measured.latency_ms, 0.99);
  values["latency_samples"] = static_cast<double>(measured.latency_ms.size());
  values["error_rate"] = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  values["setup_s"] = median(setup_s);
  values["peak_rss_mb"] = peak_rss_mib();

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"values\": {",
              failed == 0 && attempted > 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmm_perfbench: %s\n", e.what());
    return 1;
  }
}
