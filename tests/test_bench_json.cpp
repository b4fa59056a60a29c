// The BENCH_*.json trajectory files are consumed by scripts across PRs, so
// the writer is under test: identity fields in a fixed order, metrics in
// name order as %.17g numbers, escaped strings, finite values only.  The
// reader side is tools/run_benches.py; tools/test_run_benches.py loads the
// same fixture line this suite pins, so writer and reader are checked
// against one shared byte string.
#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace dmm::benchjson {
namespace {

// The record tests/data/bench_record.json holds, built in code.
Record fixture_record() {
  Record r;
  r.instance = "chain k=8 \"quoted\" \\ tab\t";
  r.engine = "flat";
  r.threads = 2;
  r.n = 256;
  r.m = 380;
  r.k = 4;
  r.metrics["wall_ns"] = 1234567.25;
  r.metrics["rounds"] = 3;
  r.metrics["csp_nodes"] = 135864;
  r.metrics["orbit_reduction"] = 23.64;
  return r;
}

TEST(BenchJson, WriterOutputIsTheSharedFixtureLine) {
  // This line is the schema; changing it breaks every downstream reader.
  std::ifstream in(DMM_BENCH_FIXTURE);
  ASSERT_TRUE(in.good()) << DMM_BENCH_FIXTURE;
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(to_json(fixture_record()), line);
}

TEST(BenchJson, DefaultRecordHasIdentityOnly) {
  // A row that measures nothing carries no metrics, not inert zeros.
  EXPECT_EQ(to_json(Record{}),
            "{\"instance\":\"\",\"engine\":\"-\",\"threads\":1,\"n\":0,\"m\":0,\"k\":0,"
            "\"metrics\":{}}");
}

TEST(BenchJson, DoublesRoundTripBitForBit) {
  Record r;
  r.metrics["wall_ns"] = 1.0 / 3.0 * 1e9;
  r.metrics["views"] = 21474836480.0;  // a count beyond 32 bits prints as an integer
  const std::string json = to_json(r);
  const std::string::size_type wall = json.find("\"wall_ns\":");
  ASSERT_NE(wall, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + wall + 10, nullptr), r.metrics["wall_ns"]);
  EXPECT_NE(json.find("\"views\":21474836480,"), std::string::npos) << json;
}

TEST(BenchJson, PeakRssIsPositiveOnLinux) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0);
#else
  EXPECT_EQ(peak_rss_bytes(), 0);
#endif
}

TEST(BenchJson, RejectsNonFiniteMetrics) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const char* name : {"wall_ns", "init_ms", "orbit_reduction", "fairness_ratio"}) {
      Record r = fixture_record();
      r.metrics[name] = bad;
      EXPECT_THROW(to_json(r), std::invalid_argument) << name << " = " << bad;
    }
  }
}

TEST(BenchJson, HarnessReadsItsFlagsAndWrites) {
  Harness h("e1", {"--smoke", "--json-dir", ".", "--benchmark_filter=x"},
            util::Flags("usage: bench"));
  // The google-benchmark flag is kept, whole, for google-benchmark to check.
  EXPECT_TRUE(h.smoke());
  EXPECT_FALSE(h.scale());
  EXPECT_EQ(h.benchmark_args(), std::vector<std::string>{"--benchmark_filter=x"});

  h.add(fixture_record());
  Record second;
  second.instance = "chain k=8";
  second.engine = "sync";
  h.timed(second, [] {});
  ASSERT_EQ(h.records().size(), 2u);
  EXPECT_GE(h.records()[1].metrics.at("wall_ns"), 0.0);

  Record bad;
  bad.metrics["wall_ns"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(h.add(bad), std::invalid_argument);
  EXPECT_EQ(h.records().size(), 2u);

  EXPECT_EQ(h.write(), 0);
  std::ifstream in(h.path());
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_EQ(text.rfind("{\"schema\":\"dmm-bench-9\",\"experiment\":\"e1\",\"records\":[\n", 0),
            0u)
      << text;
  // Each stored record is embedded verbatim, one per line.
  for (const Record& r : h.records()) {
    EXPECT_NE(text.find("\n  " + to_json(r)), std::string::npos);
  }
  std::remove(h.path().c_str());
}

TEST(BenchJson, HarnessRejectsUndeclaredFlags) {
  // The constructor throws, so no row runs and no file is written.
  const std::vector<std::vector<std::string>> bad = {
      {"--smoke", "--bogus"}, {"--smoke", "--thread", "4"}, {"--smoke", "--smoke"},
      {"--json-dir"},         {"stray"},                    {"--threads", "4"}};
  for (const std::vector<std::string>& args : bad) {
    EXPECT_THROW(Harness("e1", args, util::Flags("usage: bench")), util::UsageError)
        << args[0];
  }
  // A bench's own flag is read where the bench declared it (e17's --threads).
  int threads = 1;
  Harness h("e17", {"--threads", "4", "--scale"},
            util::Flags("usage: bench [--threads N>=1]").number("--threads", threads, 1));
  EXPECT_EQ(threads, 4);
  EXPECT_TRUE(h.scale());
  EXPECT_FALSE(h.smoke());
}

TEST(BenchJson, EscapeKeepsStringFieldsInsideTheirQuotes) {
  // The same escaping serves dmm_cli's --json instance field.
  EXPECT_EQ(util::json_escape("file:q\"x.txt"), "file:q\\\"x.txt");
  EXPECT_EQ(util::json_escape("a\\b\nc\x01"), "a\\\\b\\nc\\u0001");
}

}  // namespace
}  // namespace dmm::benchjson
