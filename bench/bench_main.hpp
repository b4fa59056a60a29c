// The main() every bench binary shares: read the command line, record the
// experiment's rows, run its google-benchmark loops unless --smoke, and
// write BENCH_<exp>.json.  A flag nobody declared — not the harness, not
// the bench, not google-benchmark — prints the usage line and exits 2
// before any row runs, so no BENCH file is written for a mistyped run.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "util/flags.hpp"

namespace dmm::benchjson {

/// The usage line of a bench binary; `own` names the bench's own flags.
inline std::string usage_line(const char* binary, const std::string& own = "") {
  return std::string("usage: ") + binary + " [--smoke] [--scale] [--json-dir <dir>] " +
         (own.empty() ? "" : own + " ") + "[--benchmark_<flag>=<value> ...]";
}

/// Runs one experiment: rows(harness) records its rows.  `flags` declares
/// the bench's own flags, if any, under a usage_line() naming them.
template <class Rows>
int run_experiment(const char* experiment, int argc, char** argv, util::Flags flags,
                   Rows&& rows) {
  const std::string usage = flags.usage();
  try {
    Harness harness(experiment, {argv + 1, argv + argc}, std::move(flags));
    std::vector<std::string> forwarded = harness.benchmark_args();
    std::vector<char*> bench_argv{argv[0]};
    for (std::string& arg : forwarded) bench_argv.push_back(arg.data());
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
      throw util::UsageError("unknown google-benchmark flag\n" + usage);
    }
    rows(harness);
    if (!harness.smoke()) benchmark::RunSpecifiedBenchmarks();
    return harness.write();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}

template <class Rows>
int run_experiment(const char* experiment, int argc, char** argv, Rows&& rows) {
  return run_experiment(experiment, argc, argv, util::Flags(usage_line(argv[0])),
                        std::forward<Rows>(rows));
}

/// run_experiment for the table-only experiments: one whole-table record.
template <class Table>
int run_table_experiment(const char* experiment, int argc, char** argv, Table&& print_table) {
  return run_experiment(experiment, argc, argv, [&](Harness& harness) {
    Record table;
    table.instance = "experiment table";
    harness.timed(std::move(table), print_table);
  });
}

}  // namespace dmm::benchjson
