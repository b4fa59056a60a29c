// Schedule-perturbation stress suite for the flat engine's persistent
// work-stealing pool (ISSUE 7).
//
// The pool's contract is that RunResult is a pure function of
// (graph, program): the thread count, the chunk size and the steal switch
// change only *which worker executes which chunk*, never the simulated
// behaviour.  This suite perturbs the schedule across the full grid
//
//   threads ∈ {1, 2, 7, 16} × chunk_slots ∈ {1, 64, default} × steal ∈ {on, off}
//
// and asserts every RunResult field is identical to the run_sync oracle —
// on random graphs for every engine realisation, on the maximally skewed
// instances the chunker exists for (a 255-leaf star, the model's degree
// cap, and hub-cluster / power-law-style graphs where a contiguous run of
// max-degree hub rows serialised the old static node-count partition), and
// across two round-stamp tag cycles with mixed halted/running nodes (the
// wipe_live_rows regression), once more under crashes, restarts and drops
// so the engine's live-node list changes across both wipes, and once with
// nodes that sleep across both wipes and wake to write single ports.  It
// also pins the structural gauge of the fix: threads are spawned once per
// engine, so threads_spawned is workers − 1 regardless of how many rounds
// run — the old engine spawned 2·rounds·(workers−1).
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algo/greedy.hpp"
#include "algo/runner.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/faults.hpp"
#include "local/flat_engine.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

struct Schedule {
  int threads;
  std::size_t chunk_slots;
  bool steal;
};

std::string schedule_str(const Schedule& s) {
  return " [threads=" + std::to_string(s.threads) +
         " chunk=" + std::to_string(s.chunk_slots) + (s.steal ? " steal" : " no-steal") + "]";
}

/// The full 24-configuration grid from the issue.  chunk_slots = 0 is the
/// auto default; 1 shatters into per-node chunks (maximum stealing
/// traffic); 64 sits between.
std::vector<Schedule> full_grid() {
  std::vector<Schedule> grid;
  for (int threads : {1, 2, 7, 16}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{0}}) {
      for (bool steal : {true, false}) grid.push_back({threads, chunk, steal});
    }
  }
  return grid;
}

void expect_grid_agrees(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                        int max_rounds, const RunResult& oracle,
                        const std::vector<Schedule>& grid, const std::string& context,
                        const FaultPlan* plan = nullptr) {
  for (const Schedule& s : grid) {
    FlatEngineOptions options;
    options.threads = s.threads;
    options.chunk_slots = s.chunk_slots;
    options.steal = s.steal;
    expect_same_result(oracle, run_flat(g, source, {max_rounds, FaultOptions{plan}}, options),
                       context + schedule_str(s));
  }
}

TEST(FlatStress, FuzzRealisationsAcrossScheduleGrid) {
  // Every engine realisation on a spread of random instances, all 24
  // schedules each.  Smaller instance count than test_flat_engine's fuzz —
  // the grid multiplies every run by 24.
  const std::vector<Schedule> grid = full_grid();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 31 + 5);
    const int n = 4 + static_cast<int>(seed * 2);
    const int k = 2 + static_cast<int>(seed % 3);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.7, rng);
    const std::string context =
        "random n=" + std::to_string(n) + " k=" + std::to_string(k);
    for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
      const RunResult oracle = run_sync(g, r.factory, {r.round_bound});
      expect_grid_agrees(g, r.factory, r.round_bound, oracle, grid, context + " " + r.name);
    }
  }
}

TEST(FlatStress, StarGraphMaxSkewAgrees) {
  // The 255-leaf star is the most skewed instance the 8-bit colour model
  // admits: one row holds half of all slots, so with chunk_slots = 1 the
  // hub row is a single chunk one worker must take while the others steal
  // the leaves.  Greedy runs the full 254 rounds on it (k = 255).
  const graph::EdgeColouredGraph g = graph::star_graph(255);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), {256});
  EXPECT_EQ(oracle.rounds, 254);  // greedy's k - 1 bound, maximal here
  expect_grid_agrees(g, algo::greedy_program_factory(), 256, oracle, full_grid(),
                     "star(255) greedy");
}

TEST(FlatStress, HubClusterPowerLawAgrees) {
  // Two-point degree distribution {60, 1}: 40 max-degree hubs front-loaded
  // in node order — the adversarial layout for the old static node-count
  // partition, where worker 0 got all the hubs.  Degree-aware chunking
  // splits the hub run; stealing drains it.
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/40, /*hub_degree=*/60, /*first_colour=*/1);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), {64});
  expect_grid_agrees(g, algo::greedy_program_factory(), 64, oracle, full_grid(),
                     "hub_cluster(40,60) greedy");
}

/// Broadcasts one byte per round for `rounds` rounds, then halts with the
/// count of non-empty messages heard (mod 251) — any misdelivered,
/// dropped or stale-slot-aliased message changes the output.
class PulseProgram final : public NodeProgram {
 public:
  explicit PulseProgram(int rounds) : remaining_(rounds) {}
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox& out) override { out.broadcast("p"); }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      if (!in.at(port).empty()) ++heard_;
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(heard_ % 251); }

 private:
  int remaining_;
  std::size_t heard_ = 0;
};

TEST(FlatStress, HotRowsAtHundredThousandNodes) {
  // n = 390 · 256 = 99 840 with every hub at the model's 255-degree cap:
  // the hub rows hold half the plane's slots in the first 0.4% of the node
  // range.  (The issue's literal one-hub n = 10⁵ star cannot exist — a
  // proper colouring of a degree-d hub needs d distinct colours and Colour
  // is uint8_t — so maximum-degree hubs are tiled instead.)
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/390, /*hub_degree=*/255, /*first_colour=*/1);
  EXPECT_EQ(g.node_count(), 99840);
  const auto factory = [] { return PulseProgram(3); };
  const RunResult oracle = run_sync(g, factory, {8});
  EXPECT_EQ(oracle.rounds, 3);
  expect_grid_agrees(g, factory, 8, oracle, full_grid(), "hub_cluster(390,255) pulse");
}

TEST(FlatStress, GreedySkewedAtHundredThousandNodes) {
  // Greedy end-to-end on a 10⁵-node skewed instance (hubs at degree 128,
  // colours 128..255, so the run lasts 254 rounds).  The serial flat run
  // is the oracle here — run_sync visits every node in every one of the
  // 254 rounds and would dominate the suite; serial-vs-sync equivalence on
  // this family is already pinned at smaller n above.
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/776, /*hub_degree=*/128, /*first_colour=*/128);
  EXPECT_EQ(g.node_count(), 100104);
  const RunResult oracle = run_flat(g, algo::greedy_program_factory(), {256});
  EXPECT_EQ(oracle.rounds, 254);
  const std::vector<Schedule> grid = {
      {2, 0, true}, {7, 0, true}, {7, 0, false}, {7, 4096, true}, {16, 0, true},
  };
  expect_grid_agrees(g, algo::greedy_program_factory(), 256, oracle, grid,
                     "hub_cluster(776,128,first=128) greedy");
}

/// Halts after `rounds` rounds; while running, sends its running round
/// count on its smallest incident colour only (other ports deliberately
/// silent) and folds everything it hears into a checksum.  With staggered
/// lifetimes this leaves a mix of halted and running senders across the
/// 255-round tag-cycle boundaries: a wipe that misses a live row (stale
/// stamp aliasing a new round) or touches state it should not would
/// corrupt the checksum of some node.
class StaggeredChirper final : public NodeProgram {
 public:
  explicit StaggeredChirper(int rounds) : remaining_(rounds) {}
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int round, Outbox& out) override { out.set(0, std::to_string(round)); }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch);
      sum_ += in.colour(port);
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 255); }

 private:
  int remaining_;
  std::size_t sum_ = 0;
};

TEST(FlatStress, WipeCycleRegressionAcrossTwoTagCycles) {
  // Round stamps cycle 1..255, so a 600-round run crosses the wipe twice
  // (rounds 256 and 511).  A third of the nodes halt at round 5 and stay
  // halted through both wipes — their rows must keep serving the cached
  // announcement while the running rows are re-zeroed.  The legacy
  // factory's call counter resets modulo n per run, so every engine and
  // schedule sees the same per-node lifetimes.
  Rng rng(99);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  int counter = 0;
  const auto factory = [&] {
    const int i = counter++ % n;
    return StaggeredChirper(i % 3 == 0 ? 5 : 600);
  };
  const RunResult oracle = run_sync(g, factory, {601});
  EXPECT_EQ(oracle.rounds, 600);  // crossed both tag cycles
  expect_grid_agrees(g, factory, 601, oracle, full_grid(), "two-tag-cycle chirper");
}

/// Like StaggeredChirper, but until round 300 it cycles through every way
/// the flat engine stores a message — an inline broadcast (the broadcast
/// slot), one inline message on its smallest port, a spilled broadcast (a
/// slot per port) — and a silent round; from round 300 on it only
/// alternates the smallest-port message with silence.  So from round 300
/// on, every slot but port 0's keeps the stamp of its last earlier write:
/// a wipe that missed a broadcast slot, or the row of a node that was down
/// across it, would deliver that stale message once the tag recurs.
class MixedChirper final : public NodeProgram {
 public:
  explicit MixedChirper(int rounds) : remaining_(rounds) {}
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int round, Outbox& out) override {
    switch (kind(round)) {
      case Kind::kPort:
        out.set(0, message(round));
        break;
      case Kind::kSilent:
        break;
      default:
        out.broadcast(message(round));
    }
  }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch);
      sum_ += in.colour(port);
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 255); }

 private:
  enum class Kind { kBroadcast, kPort, kSpilledBroadcast, kSilent };

  static Kind kind(int round) {
    if (round >= 300) return round % 2 == 1 ? Kind::kPort : Kind::kSilent;
    return static_cast<Kind>(round % 4);
  }

  static std::string message(int round) {
    const std::string digits = std::to_string(round);
    return kind(round) == Kind::kSpilledBroadcast ? "spilled:" + digits : digits;
  }

  int remaining_;
  std::size_t sum_ = 0;
};

TEST(FlatStress, LiveListAcrossTwoTagCyclesUnderFaults) {
  // The live-node list under every way a node leaves or rejoins it, across
  // both tag-cycle wipes (rounds 256 and 511) with drops on: node `back`
  // is down from round 2 to 351, so it sits in the list through the first
  // wipe and restarts after all its neighbours halted at round 100 (it
  // then hears only table announcements); node `gone` crashes for good at
  // round 50 while its neighbours run to round 600; node `flaky` is down
  // from round 200 to 300, across the first wipe, and its neighbours read
  // its unwritten ports again after it restarts.  Every other node halts
  // at round 5 or runs to 600.
  Rng rng(2024);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  const auto neighbours = [&](graph::NodeIndex v) {
    std::vector<graph::NodeIndex> out;
    for (const graph::HalfEdge& h : g.half_edges(v)) out.push_back(h.to);
    return out;
  };
  const auto within = [&](graph::NodeIndex v, graph::NodeIndex w) {  // distance ≤ 2
    if (v == w) return true;
    for (graph::NodeIndex x : neighbours(v)) {
      if (x == w) return true;
      for (graph::NodeIndex y : neighbours(x)) {
        if (y == w) return true;
      }
    }
    return false;
  };
  graph::NodeIndex back = 0;
  while (back < n && g.degree(back) < 2) ++back;
  ASSERT_LT(back, n);
  graph::NodeIndex gone = 0;
  while (gone < n && (g.degree(gone) < 2 || within(back, gone))) ++gone;
  graph::NodeIndex flaky = 0;
  while (flaky < n && (g.degree(flaky) < 2 || within(back, flaky) || within(gone, flaky))) {
    ++flaky;
  }
  ASSERT_LT(flaky, n);
  ASSERT_LT(gone, n);

  std::vector<int> lifetime(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) lifetime[static_cast<std::size_t>(v)] = v % 3 == 0 ? 5 : 600;
  lifetime[static_cast<std::size_t>(back)] = 600;
  for (graph::NodeIndex v : neighbours(back)) lifetime[static_cast<std::size_t>(v)] = 100;
  for (graph::NodeIndex v : neighbours(gone)) lifetime[static_cast<std::size_t>(v)] = 600;
  for (graph::NodeIndex v : neighbours(flaky)) lifetime[static_cast<std::size_t>(v)] = 600;
  lifetime[static_cast<std::size_t>(flaky)] = 600;
  int counter = 0;
  const auto factory = [&] {
    return MixedChirper(lifetime[static_cast<std::size_t>(counter++ % n)]);
  };

  FaultPlan plan;
  plan.add_crash(back, 2, 350);  // down rounds 2-351, restarts at 352
  plan.add_crash(gone, 50, 0);   // permanent
  plan.add_crash(flaky, 200, 101);  // down rounds 200-300, restarts at 301
  plan.set_drops(0.05, 17);
  const RunResult oracle = run_sync(g, factory, {601, FaultOptions{&plan}});
  ASSERT_EQ(oracle.rounds, 600);  // crossed both tag cycles
  EXPECT_EQ(oracle.crashes, 3u);
  EXPECT_EQ(oracle.restarts, 2u);
  EXPECT_GT(oracle.messages_dropped, 0u);
  EXPECT_EQ(oracle.halt_round[static_cast<std::size_t>(gone)], -1);
  EXPECT_EQ(oracle.halt_round[static_cast<std::size_t>(back)], 600);
  for (graph::NodeIndex v : neighbours(back)) {
    EXPECT_EQ(oracle.halt_round[static_cast<std::size_t>(v)], 100) << "neighbour " << v;
  }
  for (graph::NodeIndex v : neighbours(gone)) {
    EXPECT_EQ(oracle.halt_round[static_cast<std::size_t>(v)], 600) << "neighbour " << v;
  }
  for (graph::NodeIndex v : neighbours(flaky)) {
    EXPECT_EQ(oracle.halt_round[static_cast<std::size_t>(v)], 600) << "neighbour " << v;
  }

  std::vector<Schedule> grid;
  for (int threads : {1, 4}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
      for (bool steal : {true, false}) grid.push_back({threads, chunk, steal});
    }
  }
  expect_grid_agrees(g, factory, 601, oracle, grid, "live list under faults", &plan);
}

/// Acts once every `period` rounds (the rounds ≡ `phase`) and sleeps in
/// between.  An active round writes one inline message on a single port,
/// the next one along each time, leaves the others silent, and folds every
/// port it hears into a checksum; it halts in the first active round at or
/// past `rounds`.  A dormant round broadcasts one constant byte, ignores
/// its inbox, and answers next_active_round with the next active round.
/// So on the flat engine a node sleeps through each dormant stretch and
/// wakes to write single ports: a woken node that read its stale
/// broadcast or port stamps, or a sleeper whose broadcast stopped being
/// served, changes the checksum of some node.  `steps` counts send calls,
/// to show the nodes did sleep.
class SleepyChirper final : public NodeProgram {
 public:
  SleepyChirper(int rounds, int period, int phase, std::atomic<std::size_t>* steps)
      : remaining_(rounds), period_(period), phase_(phase), steps_(steps) {}
  bool init(std::span<const Colour> incident) override { return incident.empty(); }
  void send(int round, Outbox& out) override {
    steps_->fetch_add(1, std::memory_order_relaxed);
    if (!active(round)) {
      out.broadcast("z");
      return;
    }
    out.set(round / period_ % out.ports(), std::to_string(round));
  }
  bool receive(int round, const Inbox& in) override {
    if (!active(round)) return false;
    for (int port = 0; port < in.ports(); ++port) {
      for (char ch : in.at(port)) sum_ = sum_ * 31 + static_cast<unsigned char>(ch);
      sum_ += in.colour(port);
    }
    return round >= remaining_;
  }
  Colour output() const override { return static_cast<Colour>(sum_ % 255); }
  int next_active_round(int round) const noexcept override {
    const int next = round + 1;
    return next + ((phase_ - next % period_) % period_ + period_) % period_;
  }
  void save_state(std::string& out) const override { out = std::to_string(sum_); }
  void load_state(std::string_view in) override { sum_ = std::stoull(std::string(in)); }

 private:
  bool active(int round) const { return round % period_ == phase_; }

  int remaining_;
  int period_;
  int phase_;
  std::atomic<std::size_t>* steps_;
  std::size_t sum_ = 0;
};

TEST(FlatStress, SleepersAcrossTwoTagCycles) {
  // 600 rounds cross both tag-cycle restarts (rounds 256 and 511), and the
  // phases are 2, 3 or 4 (mod the period), so many neighbours act in the
  // same rounds.
  //   * Period 255 writes port 0 in round 2, sleeps across round 256 and
  //     writes port 1 in round 257, whose tag is round 2's: port 0 must
  //     read as silent, which only the wipe of sleepers' rows ensures.
  //   * Period 256 broadcasts in round 3 and sleeps until round 258, the
  //     longest sleep the wake wheel holds, which has round 3's tag: its
  //     port write there must not be shadowed by that old broadcast.
  //   * Period 300 asks for more than the wheel holds, so it wakes early,
  //     broadcasts and sleeps again; periods 4 and 97 sleep short and long.
  // A third of the nodes halt at their first active round from 5 on.
  Rng rng(77);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  const int periods[] = {4, 97, 255, 256, 300};
  std::atomic<std::size_t> steps{0};
  int counter = 0;
  const auto factory = [&] {
    const int i = counter++ % n;
    const int period = periods[i % 5];
    return SleepyChirper(i % 3 == 0 ? 5 : 600, period, (2 + i % 3) % period, &steps);
  };
  const RunResult oracle = run_sync(g, factory, {900});
  EXPECT_GE(oracle.rounds, 600);  // crossed both tag cycles
  const std::size_t awake_steps = steps.exchange(0);
  expect_grid_agrees(g, factory, 900, oracle, full_grid(), "sleepy chirper");
  // The grid made 24 runs; without the contract check's extra steps, the
  // sleepers made them take far fewer send calls than 24 oracle runs.
  if (!sleep_contract_checked()) {
    EXPECT_LT(steps.load(), 24 * awake_steps / 4);
  }

  // The stale port pinned down: on the path 0 -1- 1 -2- 2, every node with
  // period 255 and phase 3, node 1 writes its colour-1 port in round 3,
  // sleeps across round 256, and in round 258, whose tag is round 3's,
  // writes its colour-2 port: node 0 must hear nothing on colour 1.
  const graph::EdgeColouredGraph path = graph::path_graph(2, {1, 2});
  const auto lockstep = [&] { return SleepyChirper(600, 255, 3, &steps); };
  const RunResult path_oracle = run_sync(path, lockstep, {900});
  EXPECT_EQ(path_oracle.rounds, 768);
  expect_grid_agrees(path, lockstep, 900, path_oracle, full_grid(), "lockstep sleepy chirper");
}

TEST(FlatStress, ThreadsSpawnedOncePerEngineNotPerRound) {
  // The structural gauge of the persistent pool: the engine's private
  // runtime spawns it once, on the first parallel phase, so threads_spawned
  // is workers − 1 — independent of the round count.  A per-phase pool
  // would spawn 2·rounds·(workers−1) threads; on this 600-round run that
  // would be 7188 with 7 workers.
  Rng rng(7);
  const int n = 60;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 5, 0.9, rng);
  int counter = 0;
  const auto factory = [&] {
    const int i = counter++ % n;
    return StaggeredChirper(i % 3 == 0 ? 5 : 600);
  };
  for (int threads : {1, 2, 7, 16}) {
    FlatEngineOptions options;
    options.threads = threads;
    const RunResult result = run_flat(g, factory, {601}, options);
    EXPECT_EQ(result.rounds, 600);
    EXPECT_EQ(result.threads_spawned, static_cast<std::size_t>(threads - 1))
        << "threads=" << threads;
  }
  // Serial paths never spawn: run_sync by construction, run_flat threads=1
  // because the pool is only built for workers > 1.
  EXPECT_EQ(run_sync(g, algo::greedy_program_factory(), {6}).threads_spawned, 0u);
  EXPECT_EQ(run_flat(g, algo::greedy_program_factory(), {6}).threads_spawned, 0u);
  // The clamp still caps workers at the node count: 1000 requested threads
  // on 60 nodes spawn 59 pool threads, not 999.
  FlatEngineOptions oversub;
  oversub.threads = 1000;
  EXPECT_EQ(run_flat(g, algo::greedy_program_factory(), {6}, oversub).threads_spawned, 59u);
  // The spawn is lazy: a threaded run whose nodes all halt at init never
  // reaches a parallel phase, so it spawns nothing.  (On an edgeless graph
  // every StaggeredChirper halts at init: it has no port to chirp on.)
  const graph::EdgeColouredGraph edgeless(n, 5);
  FlatEngineOptions four;
  four.threads = 4;
  const RunResult zero_rounds = run_flat(edgeless, factory, {601}, four);
  EXPECT_EQ(zero_rounds.rounds, 0);
  EXPECT_EQ(zero_rounds.threads_spawned, 0u);
}

}  // namespace
}  // namespace dmm::local
