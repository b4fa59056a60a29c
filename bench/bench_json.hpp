// Machine-readable benchmark trajectory: every bench binary emits a
// BENCH_<exp>.json file so perf PRs can show before/after numbers.
//
// File format (one JSON object per file):
//
//   {"schema":"dmm-bench-9","experiment":"e14","records":[
//     {"instance":"random n=100000 k=12","engine":"flat","threads":1,
//      "n":100000,"m":360288,"k":12,"metrics":{"init_ms":13.197248,
//      "max_message_bytes":1,"receive_ms":13.614471999999999,"rounds":11,
//      "rss_bytes":53747712,"send_ms":3.4535399999999998,
//      "wall_ns":35726471}}, ...]}
//
// A record is its identity — the (instance, engine, threads) gate key and
// the graph shape n, m, k (0 when not graph-shaped) — plus the metrics the
// row actually measured, in the style of google-benchmark's named user
// counters.  A row that measures nothing of a kind simply has no such
// metric: there are no inert placeholders.  Every metric name, its unit
// and how the baseline gate treats it are registered once, in the METRICS
// table of tools/run_benches.py; docs/benchmarks.md lists them.  Metric
// values are finite numbers (NaN is a measurement bug, rejected at write
// time rather than discovered by a downstream reader) printed with %.17g,
// so counters print as integers and doubles round-trip bit for bit.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace dmm::benchjson {

struct Record {
  std::string instance;                   // instance family / table row label
  std::string engine = "-";               // "sync", "flat", or "-"
  int threads = 1;                        // worker threads used by the run
  int n = 0;                              // nodes (0 when not graph-shaped)
  int m = 0;                              // edges
  int k = 0;                              // palette size
  std::map<std::string, double> metrics;  // name -> value, written in name order
};

/// Peak resident set size of this process in bytes (getrusage); 0 where
/// the platform has no such counter.
long long peak_rss_bytes();

/// One-line JSON object: the identity fields, then the metrics object.
/// Throws std::invalid_argument on a non-finite metric.
std::string to_json(const Record& record);

/// Collects records for one experiment and writes BENCH_<exp>.json.
///
/// The constructor reads the command line (the arguments after the binary
/// name): the harness flags below, the flags the bench declared on `flags`
/// (whose usage line names them all), and google-benchmark's own
/// `--benchmark_*` tokens, kept in benchmark_args() for google-benchmark to
/// check.  Anything else throws util::UsageError.
///   --smoke            only the instrumented tables run, benchmark loops
///                      are skipped (see run_experiment, bench_main.hpp)
///   --scale            opt-in n = 10⁷ scale rows (the `bench_scale`
///                      nightly leg; e14 and e17 react, every binary
///                      accepts the flag so run_benches.py can pass it
///                      uniformly)
///   --json-dir <path>  output directory (default: $DMM_BENCH_JSON_DIR,
///                      falling back to the working directory)
class Harness {
 public:
  Harness(std::string experiment, const std::vector<std::string>& args, util::Flags flags);

  bool smoke() const noexcept { return smoke_; }
  bool scale() const noexcept { return scale_; }
  const std::vector<std::string>& benchmark_args() const noexcept { return benchmark_args_; }

  /// Validates (via to_json) and stores one record.
  void add(Record record);

  /// Runs fn(), records its wall-clock as the `wall_ns` metric, stores it.
  template <class F>
  void timed(Record record, F&& fn) {
    record.metrics["wall_ns"] = time_ns([&] { fn(); });
    add(std::move(record));
  }

  /// Wall-clock of fn() in nanoseconds, for callers that patch a record
  /// with results computed inside fn().
  static double time_ns(const std::function<void()>& fn);

  /// Writes BENCH_<experiment>.json; returns 0, or 2 on I/O failure.  Call
  /// last in main().
  int write() const;

  const std::vector<Record>& records() const noexcept { return records_; }
  std::string path() const;

 private:
  std::string experiment_;
  std::string directory_;
  bool smoke_ = false;
  bool scale_ = false;
  std::vector<std::string> benchmark_args_;
  std::vector<Record> records_;
};

}  // namespace dmm::benchjson
