// Engine equivalence: run_flat is only allowed to exist because it agrees
// with the reference oracle run_sync on every RunResult field, for every
// program — the native greedy (with its flat fast path), the flooding
// realisation of every LocalAlgorithm in src/algo/, and a zoo of
// misbehaving programs probing the engine edge cases.
#include "local/flat_engine.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algo/greedy.hpp"
#include "algo/runner.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/flooding.hpp"
#include "local/view_engine.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

void expect_engines_agree(const graph::EdgeColouredGraph& g,
                          const ProgramSource& source, int max_rounds,
                          const std::string& context) {
  const RunResult oracle = run_sync(g, source, max_rounds);
  expect_same_result(oracle, run_flat(g, source, max_rounds), context + " [serial]");
  FlatEngineOptions threaded;
  threaded.threads = 3;
  expect_same_result(oracle, run_flat(g, source, max_rounds, threaded),
                     context + " [threads=3]");
}

TEST(FlatEngine, FuzzRandomGraphsEveryAlgorithm) {
  // ~200 random instances; the native greedy runs on all of them, the
  // flooding realisations (exponential views) on the small-k subset.
  int instances = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(seed % 59);
    const int k = 1 + static_cast<int>(seed % 8);
    const double density = 0.2 + 0.1 * static_cast<double>(seed % 9);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, density, rng);
    ++instances;
    const std::string context = "random n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                " seed=" + std::to_string(seed);
    if (k <= 4 && n <= 32) {
      for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
        expect_engines_agree(g, r.factory, r.round_bound, context + " " + r.name);
      }
    } else {
      expect_engines_agree(g, algo::greedy_program_factory(), k + 1, context + " greedy");
    }
  }
  EXPECT_EQ(instances, 200);
}

TEST(FlatEngine, WorstCaseChainsEveryAlgorithm) {
  // The adversarial instances of test_worst_case.cpp.  Chains have degree
  // <= 2, so views stay linear and every flooding realisation is cheap.
  for (int k = 2; k <= 8; ++k) {
    const graph::WorstCase wc = graph::worst_case_chain(k);
    for (const graph::EdgeColouredGraph* g : {&wc.long_path, &wc.short_path}) {
      for (const algo::EngineRealisation& r :
           algo::engine_realisations(k, /*flood_radius_cap=*/k)) {
        expect_engines_agree(*g, r.factory, r.round_bound,
                             "chain k=" + std::to_string(k) + " " + r.name);
      }
    }
  }
}

TEST(FlatEngine, FloodingMatchesViewEngine) {
  // The flooding realisation is pinned to run_views as well: three
  // independent implementations of §2.3 give the same outputs.
  Rng rng(424242);
  const int k = 4;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(24, k, 0.7, rng);
  for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
    if (r.name.rfind("flood:", 0) != 0) continue;
    SCOPED_TRACE(r.name);
    expect_same_result(run_sync(g, r.factory, r.round_bound),
                       run_flat(g, r.factory, r.round_bound), r.name);
  }
  // Direct run_views pin for the canonical case: flooded greedy.
  const algo::GreedyLocal greedy(k);
  const std::vector<Colour> views = run_views(g, greedy);
  const RunResult flooded = run_flat(
      g, flooding_program_factory(std::make_shared<algo::GreedyLocal>(k), k), k + 1);
  EXPECT_EQ(views, flooded.outputs);
  const RunResult native = run_flat(g, algo::greedy_program_factory(), k + 1);
  EXPECT_EQ(views, native.outputs);
}

// --- misbehaving-program zoo: engine edge cases -------------------------

/// Halts immediately with output = smallest incident colour (or ⊥).
class HaltAtInit final : public NodeProgram {
 public:
  bool init(const std::vector<Colour>& incident) override {
    out_ = incident.empty() ? kUnmatched : incident.front();
    return true;
  }
  std::map<Colour, Message> send(int) override { return {}; }
  bool receive(int, const std::map<Colour, Message>&) override { return true; }
  Colour output() const override { return out_; }

 private:
  Colour out_ = kUnmatched;
};

/// Counts down `rounds` rounds, then halts with ⊥.
class HaltAfter final : public NodeProgram {
 public:
  explicit HaltAfter(int rounds) : remaining_(rounds) {}
  bool init(const std::vector<Colour>&) override { return remaining_ == 0; }
  std::map<Colour, Message> send(int) override { return {}; }
  bool receive(int, const std::map<Colour, Message>&) override { return --remaining_ == 0; }
  Colour output() const override { return kUnmatched; }

 private:
  int remaining_;
};

/// Sends messages on colours it does not have (they are counted, never
/// delivered) and a growing payload on the colours it does.
class RogueGrower final : public NodeProgram {
 public:
  bool init(const std::vector<Colour>& incident) override {
    incident_ = incident;
    return false;
  }
  std::map<Colour, Message> send(int round) override {
    std::map<Colour, Message> out;
    for (Colour c = 1; c <= 9; ++c) {
      // Crosses the kFlatInlineBytes boundary round over round: spills.
      out[c] = Message(static_cast<std::size_t>(round) * 9, 'x');
    }
    return out;
  }
  bool receive(int round, const std::map<Colour, Message>& inbox) override {
    for (const auto& [c, m] : inbox) seen_ += m.size();
    return round >= 3;
  }
  Colour output() const override { return static_cast<Colour>(seen_ % 5); }

 private:
  std::vector<Colour> incident_;
  std::size_t seen_ = 0;
};

/// Sends only along its smallest incident colour; other ports stay silent,
/// so receivers see the engine-synthesised empty message.
class PartialSender final : public NodeProgram {
 public:
  bool init(const std::vector<Colour>& incident) override {
    incident_ = incident;
    return incident_.empty();
  }
  std::map<Colour, Message> send(int) override {
    return {{incident_.front(), "only"}};
  }
  bool receive(int round, const std::map<Colour, Message>& inbox) override {
    heard_ = 0;
    for (const auto& [c, m] : inbox) heard_ += m.empty() ? 0 : 1;
    return round >= 2;
  }
  Colour output() const override { return static_cast<Colour>(heard_); }

 private:
  std::vector<Colour> incident_;
  int heard_ = 0;
};

TEST(FlatEngine, ProgramZooAgrees) {
  Rng rng(7);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(40, 6, 0.8, rng);
  expect_engines_agree(g, [] { return std::make_unique<HaltAtInit>(); }, 10, "halt-at-init");
  int counter = 0;
  expect_engines_agree(
      g,
      [&]() -> std::unique_ptr<NodeProgram> {
        return std::make_unique<HaltAfter>(counter++ % 5);
      },
      10, "staggered-halts");
  expect_engines_agree(g, [] { return std::make_unique<RogueGrower>(); }, 10, "rogue-grower");
  expect_engines_agree(g, [] { return std::make_unique<PartialSender>(); }, 10,
                       "partial-sender");
}

TEST(FlatEngine, IsolatedNodesAndEmptyGraphs) {
  const graph::EdgeColouredGraph empty(0, 3);
  expect_engines_agree(empty, algo::greedy_program_factory(), 4, "empty graph");
  const graph::EdgeColouredGraph isolated(5, 3);  // no edges
  expect_engines_agree(isolated, algo::greedy_program_factory(), 4, "isolated nodes");
}

TEST(FlatEngine, ThrowsLikeTheOracleWhenNotHalting) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const auto factory = [] { return std::make_unique<HaltAfter>(100); };
  EXPECT_THROW(run_sync(g, factory, 5), std::runtime_error);
  EXPECT_THROW(run_flat(g, factory, 5), std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, factory, 5, threaded), std::runtime_error);
}

/// Throws during send — the flat engine must fail fast on any thread.
class Thrower final : public NodeProgram {
 public:
  bool init(const std::vector<Colour>&) override { return false; }
  std::map<Colour, Message> send(int) override { throw std::runtime_error("node crashed"); }
  bool receive(int, const std::map<Colour, Message>&) override { return true; }
  Colour output() const override { return kUnmatched; }
};

TEST(FlatEngine, ExceptionsPropagateFromWorkers) {
  graph::EdgeColouredGraph g(2, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(run_flat(g, [] { return std::make_unique<Thrower>(); }, 10),
               std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, [] { return std::make_unique<Thrower>(); }, 10, threaded),
               std::runtime_error);
}

TEST(FlatEngine, RowOffsetsAre64BitSafe) {
  // The CSR scan behind the engine's slot plane (EdgeColouredGraph::csr →
  // graph::csr_row_offsets) must accumulate in std::size_t: three nodes of
  // degree 2³⁰ push the running slot count past 2³¹, which wrapped in
  // 32-bit arithmetic.  The offsets are pure bookkeeping — no plane is
  // allocated here — so the regression test covers the n·Δ > 2³¹ regime
  // without 16 GiB of slots.
  const int big = 1 << 30;
  const std::vector<std::size_t> offsets = graph::csr_row_offsets({big, big, big, 5});
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[2], std::size_t{2} << 30);
  EXPECT_EQ(offsets[3], std::size_t{3} << 30);  // 3 · 2³⁰ > 2³¹: needs 64 bits
  EXPECT_EQ(offsets[4], (std::size_t{3} << 30) + 5);
  // Port addressing widens before the addition as well.
  EXPECT_EQ(flat_slot(std::size_t{3} << 30, 7), (std::size_t{3} << 30) + 7);
  EXPECT_THROW(graph::csr_row_offsets({1, -1}), std::invalid_argument);
}

TEST(FlatEngine, MatchesOracleAfterMutatingAGraphWhoseCsrWasBuilt) {
  // The first flat run builds the graph's CSR; every add_edge/remove_edge
  // after it must drop it, or run_flat would simulate a stale graph —
  // which run_sync, reading the adjacency, would expose.
  Rng rng(811);
  graph::EdgeColouredGraph g = graph::random_coloured_graph(120, 5, 0.7, rng);
  const ProgramSource source = algo::greedy_program_factory();
  expect_engines_agree(g, source, 8, "before churn");
  const graph::EdgeColouredGraph shared = g;  // holds the pre-churn CSR
  int inserts = 0;
  for (int op = 0; op < 60; ++op) {
    if (op % 3 == 2 && g.edge_count() > 0) {
      const graph::Edge e = g.edges()[rng.index(g.edges().size())];
      g.remove_edge(e.u, e.v);
    } else {
      for (int tries = 0; tries < 50; ++tries) {
        const auto u = static_cast<graph::NodeIndex>(rng.uniform(0, 119));
        const auto v = static_cast<graph::NodeIndex>(rng.uniform(0, 119));
        const auto c = static_cast<Colour>(rng.uniform(1, 5));
        if (u == v || g.has_edge(u, v) || g.neighbour(u, c) || g.neighbour(v, c)) continue;
        g.add_edge(u, v, c);
        ++inserts;
        break;
      }
    }
    if (op % 10 == 9) expect_engines_agree(g, source, 8, "after op " + std::to_string(op));
  }
  EXPECT_GT(inserts, 20);
  // The copy taken before the churn still runs on its own version.
  expect_engines_agree(shared, source, 8, "pre-churn copy");
}

TEST(FlatEngine, ConcurrentFirstCsrUseAgrees) {
  // Eight threads start flat runs at once on their own copies of one
  // fresh graph, so they race to build its CSR: one build is published,
  // and every run equals the oracle.  (The TSan CI leg runs this suite.)
  Rng rng(812);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(2000, 6, 0.7, rng);
  const ProgramSource source = algo::greedy_program_factory();
  constexpr int kThreads = 8;
  std::vector<graph::EdgeColouredGraph> copies(kThreads, g);
  std::vector<RunResult> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FlatEngineOptions options;
      options.threads = 1 + t % 3;
      start.arrive_and_wait();
      results[static_cast<std::size_t>(t)] =
          run_flat(copies[static_cast<std::size_t>(t)], source, 8, options);
    });
  }
  for (std::thread& th : threads) th.join();
  const RunResult oracle = run_sync(g, source, 8);
  for (int t = 0; t < kThreads; ++t) {
    expect_same_result(oracle, results[static_cast<std::size_t>(t)],
                       "thread " + std::to_string(t));
  }
  EXPECT_EQ(copies.front().csr(), g.csr());  // one CSR for the version
}

/// (n, threads) grid — the `threads > n`, `n = 0` and near-empty-partition
/// edges every combination of which used to be easy to hit with
/// `dmm_cli --threads 8` on a toy instance.
class FlatEngineThreadGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlatEngineThreadGrid, MatchesOracleForAnyPartition) {
  const auto [n, threads] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + threads));
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 3, 0.8, rng);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), 5);
  FlatEngineOptions options;
  options.threads = threads;
  expect_same_result(oracle,
                     run_flat(g, algo::greedy_program_factory(), 5, options),
                     "n=" + std::to_string(n) + " threads=" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(
    SmallNByManyThreads, FlatEngineThreadGrid,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 8, 17),
                       ::testing::Values(1, 2, 7, 8, 64, 1000)));

TEST(FlatEngine, EngineKindSwitch) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  const RunResult via_sync = run(EngineKind::kSync, g, algo::greedy_program_factory(), 6);
  const RunResult via_flat = run(EngineKind::kFlat, g, algo::greedy_program_factory(), 6);
  expect_same_result(via_sync, via_flat, "EngineKind dispatch");
  EXPECT_STREQ(engine_kind_name(EngineKind::kSync), "sync");
  EXPECT_STREQ(engine_kind_name(EngineKind::kFlat), "flat");
  EXPECT_EQ(parse_engine_kind("sync"), EngineKind::kSync);
  EXPECT_EQ(parse_engine_kind("flat"), EngineKind::kFlat);
  EXPECT_FALSE(parse_engine_kind("warp").has_value());
}

}  // namespace
}  // namespace dmm::local
