// Scale smoke test (tier-1): greedy on a 100 000-node instance must be
// routine for the flat engine.  This is the suite that catches a
// throughput regression — the reference run_sync engine is deliberately
// not exercised at this size (it is orders of magnitude slower), so a
// slowdown in the flat path shows up directly as a ctest timeout.
#include "local/flat_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

#include "algo/greedy.hpp"
#include "dyn/dynamic_matcher.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "verify/matching.hpp"

namespace dmm {
namespace {

constexpr int kNodes = 100000;
constexpr int kPalette = 4;

graph::EdgeColouredGraph big_instance() {
  Rng rng(20120716);  // PODC'12
  return graph::random_coloured_graph(kNodes, kPalette, 0.8, rng);
}

TEST(EngineScale, GreedyHundredThousandNodes) {
  const graph::EdgeColouredGraph g = big_instance();
  ASSERT_EQ(g.node_count(), kNodes);
  const local::RunResult run =
      local::run_flat(g, algo::greedy_program_factory(), {kPalette + 1});
  // Lemma 1 at scale: everyone halts by round k-1, and at this size some
  // node needs every round.
  EXPECT_EQ(run.rounds, kPalette - 1);
  // Constant-size messages (remark after Theorem 2).
  EXPECT_EQ(run.max_message_bytes, 1u);
  // The outputs are the greedy matching, exactly.
  EXPECT_EQ(run.outputs, algo::greedy_outputs(g));
  EXPECT_TRUE(verify::check_outputs(g, run.outputs).ok());
}

// The bench_scale row: greedy at n = 10⁷ on the flat engine, its programs
// built in one block.  Too heavy for the tier-1 loop, so it runs only
// when DMM_SCALE_TESTS is set — the nightly CI leg does
// `DMM_SCALE_TESTS=1 ctest -L scale` (tests/CMakeLists.txt labels this
// suite `scale`).
TEST(EngineScale, GreedyTenMillionNodes) {
  if (std::getenv("DMM_SCALE_TESTS") == nullptr) {
    GTEST_SKIP() << "set DMM_SCALE_TESTS=1 to run the n = 10^7 scale smoke";
  }
  constexpr std::int64_t kBig = 10'000'000;
  Rng rng(20120716);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(kBig, kPalette, 0.5, rng);
  ASSERT_EQ(g.node_count(), kBig);
  const auto start = std::chrono::steady_clock::now();
  const local::RunResult run =
      local::run_flat(g, algo::greedy_program_factory(), {kPalette + 1});
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  EXPECT_EQ(run.rounds, kPalette - 1);
  EXPECT_EQ(run.max_message_bytes, 1u);
  EXPECT_EQ(run.outputs, algo::greedy_outputs(g));
  EXPECT_TRUE(verify::check_outputs(g, run.outputs).ok());
  // The acceptance gauge: with the programs built in one block, setup
  // (programs + init) must not be the dominant phase of the run.
  EXPECT_LT(run.init_ns, wall_ns / 2)
      << "init " << run.init_ns / 1e6 << " ms of " << wall_ns / 1e6 << " ms total";
}

// DynamicMatcher's per-batch touch stamp is 32 bits: batch 2³² wraps it to
// 0, where a never-touched node's stamp already sits.  Without a reset that
// batch would count its touched nodes as seen before.  Heavy (2³² applies),
// so it shares the DMM_SCALE_TESTS gate.
TEST(EngineScale, ChurnBatchStampSurvivesWraparound) {
  if (std::getenv("DMM_SCALE_TESTS") == nullptr) {
    GTEST_SKIP() << "set DMM_SCALE_TESTS=1 to run 2^32 churn batches";
  }
  // Path 0-1-2-3 with colours 1,2,1: greedy matches {0,1} and {2,3}.
  graph::EdgeColouredGraph g(4, 2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 1);
  dyn::DynamicMatcher matcher(g);
  const dyn::ChurnBatch empty;
  constexpr std::uint64_t kEmpty = (std::uint64_t{1} << 32) - 1;
  for (std::uint64_t b = 0; b < kEmpty; ++b) matcher.apply(empty);
  ASSERT_EQ(matcher.stats().touched_nodes, 0u);
  // Deleting {0,1} frees 0 and 1; 1 reads its only other neighbour, 2.
  matcher.apply(dyn::ChurnBatch{{dyn::ChurnOp{dyn::ChurnOp::Kind::kDelete, 0, 1, 1}}});
  const dyn::RepairStats& s = matcher.stats();
  EXPECT_EQ(s.batches, kEmpty + 1);
  EXPECT_EQ(s.touched_nodes, 3u);
  EXPECT_EQ(s.touched_nodes + s.recompute_avoided, s.batches * 4);
  EXPECT_TRUE(matcher.check().ok());
}

TEST(EngineScale, ThreadedRunIsIdentical) {
  const graph::EdgeColouredGraph g = big_instance();
  const local::RunResult serial =
      local::run_flat(g, algo::greedy_program_factory(), {kPalette + 1});
  local::FlatEngineOptions options;
  options.threads = 4;
  const local::RunResult threaded =
      local::run_flat(g, algo::greedy_program_factory(), {kPalette + 1}, options);
  EXPECT_EQ(serial.outputs, threaded.outputs);
  EXPECT_EQ(serial.halt_round, threaded.halt_round);
  EXPECT_EQ(serial.rounds, threaded.rounds);
  EXPECT_EQ(serial.max_message_bytes, threaded.max_message_bytes);
  EXPECT_EQ(serial.total_message_bytes, threaded.total_message_bytes);
  EXPECT_EQ(serial.messages_sent, threaded.messages_sent);
}

}  // namespace
}  // namespace dmm
