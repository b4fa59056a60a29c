// Engine equivalence: run_flat is only allowed to exist because it agrees
// with the reference oracle run_sync on every RunResult field, for every
// program — the native greedy, the flooding realisation of every
// LocalAlgorithm in src/algo/, and a zoo of misbehaving programs probing
// the engine edge cases.
#include "local/flat_engine.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
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
  const RunResult oracle = run_sync(g, source, {max_rounds});
  expect_same_result(oracle, run_flat(g, source, {max_rounds}), context + " [serial]");
  FlatEngineOptions threaded;
  threaded.threads = 3;
  expect_same_result(oracle, run_flat(g, source, {max_rounds}, threaded),
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
    expect_same_result(run_sync(g, r.factory, {r.round_bound}),
                       run_flat(g, r.factory, {r.round_bound}), r.name);
  }
  // Direct run_views pin for the canonical case: flooded greedy.
  const algo::GreedyLocal greedy(k);
  const std::vector<Colour> views = run_views(g, greedy);
  const RunResult flooded = run_flat(
      g, flooding_program_factory(std::make_shared<algo::GreedyLocal>(k), k), {k + 1});
  EXPECT_EQ(views, flooded.outputs);
  const RunResult native = run_flat(g, algo::greedy_program_factory(), {k + 1});
  EXPECT_EQ(views, native.outputs);
}

// --- misbehaving-program zoo: engine edge cases -------------------------

/// Halts immediately with output = smallest incident colour (or ⊥).
class HaltAtInit final : public NodeProgram {
 public:
  bool init(std::span<const Colour> incident) override {
    out_ = incident.empty() ? kUnmatched : incident.front();
    return true;
  }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return out_; }

 private:
  Colour out_ = kUnmatched;
};

/// Counts down `rounds` rounds, then halts with ⊥.
class HaltAfter final : public NodeProgram {
 public:
  explicit HaltAfter(int rounds) : remaining_(rounds) {}
  bool init(std::span<const Colour>) override { return remaining_ == 0; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return --remaining_ == 0; }
  Colour output() const override { return kUnmatched; }

 private:
  int remaining_;
};

/// Sends messages on colours it does not have (they are counted, never
/// delivered) and a growing payload on the colours it does.
class RogueGrower final : public NodeProgram {
 public:
  bool init(std::span<const Colour>) override { return false; }
  void send(int round, Outbox& out) override {
    for (Colour c = 1; c <= 9; ++c) {
      // Crosses the kFlatInlineBytes boundary round over round: spills.
      out.set_colour(c, std::string(static_cast<std::size_t>(round) * 9, 'x'));
    }
  }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) seen_ += in.at(port).size();
    return round >= 3;
  }
  Colour output() const override { return static_cast<Colour>(seen_ % 5); }

 private:
  std::size_t seen_ = 0;
};

/// Sends only along its smallest incident colour; other ports stay silent,
/// so receivers see the engine-synthesised empty message.
class PartialSender final : public NodeProgram {
 public:
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int, Outbox& out) override { out.set(0, "only"); }
  bool receive(int round, const Inbox& in) override {
    heard_ = 0;
    for (int port = 0; port < in.ports(); ++port) heard_ += in.at(port).empty() ? 0 : 1;
    return round >= 2;
  }
  Colour output() const override { return static_cast<Colour>(heard_); }

 private:
  int heard_ = 0;
};

/// Writes each port once per round, in whichever way the round number
/// picks — the one-write rule must not trip on writes in later rounds or
/// on distinct ports, and both engines must deliver the same messages.
class PortRotator final : public NodeProgram {
 public:
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int round, Outbox& out) override {
    if (round % 2 == 0) {
      out.broadcast(message(round, 0));
      return;
    }
    for (int port = 0; port < out.ports(); ++port) {
      out.set(port, message(round, static_cast<std::size_t>(port)));
    }
  }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch);
      sum_ += in.colour(port);
    }
    return round >= 6;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 251); }

 private:
  /// Even rounds broadcast the same bytes on every port (spilled from
  /// round 4 on); odd rounds send each port its own inline message.
  static std::string message(int round, std::size_t port) {
    if (round % 2 == 0) return round >= 4 ? "broadcast" + std::to_string(round) : "b";
    return std::to_string(round) + ":" + std::to_string(port);
  }

  std::size_t sum_ = 0;
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
  expect_engines_agree(g, [] { return std::make_unique<PortRotator>(); }, 10, "port-rotator");
}

/// Breaks the Outbox one-write rule in its first send: `first` and
/// `second` are each "set" (port 0) or "broadcast", with `payload`.
class DoubleWriter final : public NodeProgram {
 public:
  DoubleWriter(std::string first, std::string second, std::string payload)
      : first_(std::move(first)), second_(std::move(second)), payload_(std::move(payload)) {}
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox& out) override {
    write(out, first_);
    write(out, second_);
  }
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }

 private:
  void write(Outbox& out, const std::string& how) const {
    if (how == "set") {
      out.set(0, payload_);
    } else {
      out.broadcast(payload_);
    }
  }

  std::string first_;
  std::string second_;
  std::string payload_;
};

TEST(FlatEngine, SecondWriteToAPortInOneRoundThrows) {
  // A port takes one message per round, on every engine: a second write,
  // by set() or broadcast(), throws instead of replacing the first (or,
  // after a broadcast, being shadowed by the broadcast slot).  Inline
  // (1-byte) and spilled (7-byte) payloads; run_sync, serial flat and
  // pooled flat.
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  FlatEngineOptions pooled;
  pooled.threads = 2;
  pooled.chunk_slots = 1;
  const std::vector<std::pair<std::string, std::string>> orders = {
      {"set", "set"}, {"broadcast", "set"}, {"set", "broadcast"}, {"broadcast", "broadcast"}};
  for (const std::string payload : {"x", "1234567"}) {
    for (const std::pair<std::string, std::string>& order : orders) {
      const auto factory = [&] {
        return std::make_unique<DoubleWriter>(order.first, order.second, payload);
      };
      const std::string context =
          order.first + " then " + order.second + " of " + std::to_string(payload.size()) +
          " bytes";
      EXPECT_THROW(run_sync(g, factory, {5}), std::logic_error) << context << " [sync]";
      for (const FlatEngineOptions& options : {FlatEngineOptions{}, pooled}) {
        EXPECT_THROW(run_flat(g, factory, {5}, options), std::logic_error)
            << context << " [flat, threads=" << options.threads << "]";
      }
    }
  }
}

/// Broadcasts `payload` every round and counts the ports it arrived on.
class Broadcaster final : public NodeProgram {
 public:
  explicit Broadcaster(std::string payload) : payload_(std::move(payload)) {}
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int, Outbox& out) override { out.broadcast(payload_); }
  bool receive(int, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) heard_ += in.at(port) == payload_ ? 1 : 0;
    return true;
  }
  Colour output() const override { return static_cast<Colour>(heard_); }

 private:
  std::string payload_;
  int heard_ = 0;
};

TEST(FlatEngine, BroadcastArrivesOnEveryPortInlineOrSpilled) {
  // 1 and 6 bytes use the broadcast slot; 7 bytes spill through set() on
  // every port.  Either way every neighbour hears it: each node's output is
  // its degree, and the accounting is one message per directed edge.
  Rng rng(5);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(50, 7, 0.9, rng);
  const std::size_t directed = 2 * g.edges().size();
  for (const std::string payload : {"M", "123456", "1234567"}) {
    const auto factory = [&] { return std::make_unique<Broadcaster>(payload); };
    expect_engines_agree(g, factory, 4, std::to_string(payload.size()) + "-byte broadcast");
    const RunResult r = run_flat(g, factory, {4});
    for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(r.outputs[static_cast<std::size_t>(v)], g.degree(v)) << "node " << v;
    }
    EXPECT_EQ(r.messages_sent, directed);
    EXPECT_EQ(r.total_message_bytes, directed * payload.size());
  }
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
  EXPECT_THROW(run_sync(g, factory, {5}), std::runtime_error);
  EXPECT_THROW(run_flat(g, factory, {5}), std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, factory, {5}, threaded), std::runtime_error);
}

/// Throws during send — the flat engine must fail fast on any thread.
class Thrower final : public NodeProgram {
 public:
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox&) override { throw std::runtime_error("node crashed"); }
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }
};

TEST(FlatEngine, ExceptionsPropagateFromWorkers) {
  graph::EdgeColouredGraph g(2, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(run_flat(g, [] { return std::make_unique<Thrower>(); }, {10}),
               std::runtime_error);
  FlatEngineOptions threaded;
  threaded.threads = 2;
  EXPECT_THROW(run_flat(g, [] { return std::make_unique<Thrower>(); }, {10}, threaded),
               std::runtime_error);
}

/// Broadcasts "x" every round and claims, after every round, that it next
/// acts in round `wake` (halting there).  Honest, it keeps that promise;
/// each lie breaks it in round 3, while asleep on the flat engine: other
/// bytes, a halt, or a state change that save_state shows.
class SleepLiar final : public NodeProgram {
 public:
  enum class Lie { kNone, kBytes, kHalts, kState };
  SleepLiar(Lie lie, int wake) : lie_(lie), wake_(wake) {}
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int round, Outbox& out) override {
    out.broadcast(lie_ == Lie::kBytes && round == 3 ? "y" : "x");
  }
  bool receive(int round, const Inbox&) override {
    if (lie_ == Lie::kState && round == 3) ++state_;
    return round >= wake_ || (lie_ == Lie::kHalts && round == 3);
  }
  Colour output() const override { return static_cast<Colour>(state_); }
  int next_active_round(int) const noexcept override { return wake_; }
  void save_state(std::string& out) const override { out = std::to_string(state_); }
  void load_state(std::string_view in) override { state_ = std::stoi(std::string(in)); }

 private:
  Lie lie_;
  int wake_;
  int state_ = 0;
};

TEST(FlatEngine, SleepersThatKeepTheContractMatchTheOracle) {
  Rng rng(61);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(24, 4, 0.8, rng);
  const auto honest = [] { return std::make_unique<SleepLiar>(SleepLiar::Lie::kNone, 10); };
  expect_engines_agree(g, honest, 20, "honest sleepers");
  // A wake round past the budget: the sleepers never halt in time, and the
  // flat engine throws where run_sync does.
  const auto late = [] { return std::make_unique<SleepLiar>(SleepLiar::Lie::kNone, 1000); };
  EXPECT_THROW(run_sync(g, late, {20}), std::runtime_error);
  EXPECT_THROW(run_flat(g, late, {20}), std::runtime_error);
}

TEST(FlatEngine, ContractCheckCatchesALyingSleeper) {
  if (!sleep_contract_checked()) GTEST_SKIP() << "the sleeper check is off under NDEBUG";
  Rng rng(61);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(24, 4, 0.8, rng);
  for (const SleepLiar::Lie lie :
       {SleepLiar::Lie::kBytes, SleepLiar::Lie::kHalts, SleepLiar::Lie::kState}) {
    const auto liar = [lie] { return std::make_unique<SleepLiar>(lie, 10); };
    EXPECT_THROW(run_flat(g, liar, {20}), std::logic_error) << static_cast<int>(lie);
    FlatEngineOptions threaded;
    threaded.threads = 3;
    EXPECT_THROW(run_flat(g, liar, {20}, threaded), std::logic_error) << static_cast<int>(lie);
    // run_sync never asks the query, so it just runs the liar.
    EXPECT_NO_THROW(run_sync(g, liar, {20})) << static_cast<int>(lie);
  }
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
          run_flat(copies[static_cast<std::size_t>(t)], source, {8}, options);
    });
  }
  for (std::thread& th : threads) th.join();
  const RunResult oracle = run_sync(g, source, {8});
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
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), {5});
  FlatEngineOptions options;
  options.threads = threads;
  expect_same_result(oracle,
                     run_flat(g, algo::greedy_program_factory(), {5}, options),
                     "n=" + std::to_string(n) + " threads=" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(
    SmallNByManyThreads, FlatEngineThreadGrid,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 8, 17),
                       ::testing::Values(1, 2, 7, 8, 64, 1000)));

TEST(FlatEngine, EngineKindSwitch) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  const RunResult via_sync = run(EngineKind::kSync, g, algo::greedy_program_factory(), {6});
  const RunResult via_flat = run(EngineKind::kFlat, g, algo::greedy_program_factory(), {6});
  expect_same_result(via_sync, via_flat, "EngineKind dispatch");
  EXPECT_STREQ(engine_kind_name(EngineKind::kSync), "sync");
  EXPECT_STREQ(engine_kind_name(EngineKind::kFlat), "flat");
  EXPECT_EQ(parse_engine_kind("sync"), EngineKind::kSync);
  EXPECT_EQ(parse_engine_kind("flat"), EngineKind::kFlat);
  EXPECT_FALSE(parse_engine_kind("warp").has_value());
}

}  // namespace
}  // namespace dmm::local
