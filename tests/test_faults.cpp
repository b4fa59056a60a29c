// Fault injection and checkpoint/replay recovery (ISSUE 8).
//
// The two headline guarantees pinned here:
//
//   1. Engine equivalence extends to faulty runs: for any FaultPlan, any
//      program and any flat-engine schedule, run_sync and run_flat produce
//      bit-identical RunResults — outputs, halt rounds, message accounting
//      *and* the fault counters.
//
//   2. Interrupted equals uninterrupted: kill a run after any completed
//      round, restore the checkpoint (on either engine — checkpoints are
//      engine-agnostic), and the finished RunResult is bit-identical to the
//      run that was never interrupted.  The same discipline covers the
//      lower-bound side: an adversary hunt resumed mid-sweep ends with the
//      same certificate and the same evaluator history.
//
// Plus the failure modes: corrupted or truncated checkpoint bytes are
// rejected (never silently resumed), wrong-instance restores are rejected,
// and checkpointing a program without save_state fails loudly.
#include "local/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/greedy.hpp"
#include "algo/truncated_greedy.hpp"
#include "dyn/churn.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "io/serialize.hpp"
#include "local/checkpoint.hpp"
#include "local/flat_engine.hpp"
#include "local/flooding.hpp"
#include "lower/adversary.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

// --- fault-plan plumbing ------------------------------------------------

TEST(FaultPlan, EventsSortedAndRestartsBeforeCrashesOnTies) {
  FaultPlan plan;
  plan.add_crash(3, 5, 2);  // down rounds 5,6 — restarts at 7
  plan.add_crash(1, 2, 3);  // down rounds 2,3,4 — restarts at 5
  plan.add_crash(7, 1, 0);  // permanent
  const std::vector<FaultEvent>& events = plan.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].round, events[i].round);
    if (events[i - 1].round == events[i].round) {
      EXPECT_GE(events[i - 1].up, events[i].up) << "restart must precede crash at round "
                                                << events[i].round;
    }
  }
  EXPECT_EQ(plan.max_restart_round(), 7);
  EXPECT_EQ(plan.first_event_at(1), 0u);
  EXPECT_EQ(plan.first_event_at(6), 4u);  // events at rounds 1,2,5,5,7
  EXPECT_EQ(plan.first_event_at(100), events.size());
  EXPECT_THROW(plan.add_crash(0, 0, 1), std::invalid_argument);
  // The restart round 2 + INT_MAX does not fit an int.
  EXPECT_THROW(plan.add_crash(0, 2, std::numeric_limits<int>::max()), std::invalid_argument);
  EXPECT_EQ(plan.events().size(), 5u);  // a rejected crash adds no event
}

TEST(FaultPlan, DropsArePureAndSeedSensitive) {
  FaultPlan plan;
  plan.set_drops(0.5, 42);
  FaultPlan same;
  same.set_drops(0.5, 42);
  FaultPlan other;
  other.set_drops(0.5, 43);
  int agree = 0, differ = 0, dropped = 0;
  for (int round = 1; round <= 40; ++round) {
    for (graph::NodeIndex sender = 0; sender < 20; ++sender) {
      for (Colour c = 1; c <= 4; ++c) {
        const bool d = plan.drops(round, sender, c);
        EXPECT_EQ(d, plan.drops(round, sender, c));  // pure: no state advances
        EXPECT_EQ(d, same.drops(round, sender, c));
        dropped += d ? 1 : 0;
        (d == other.drops(round, sender, c) ? agree : differ) += 1;
      }
    }
  }
  EXPECT_GT(dropped, 1000);  // roughly half of 3200
  EXPECT_LT(dropped, 2200);
  EXPECT_GT(differ, 500);  // a different seed is a different coin
  FaultPlan always;
  always.set_drops(1.0, 7);
  FaultPlan never;
  never.set_drops(0.0, 7);
  EXPECT_TRUE(always.drops(1, 0, 1));
  EXPECT_FALSE(never.has_drops());
  EXPECT_THROW(always.set_drops(1.5, 0), std::invalid_argument);
}

TEST(FaultPlan, RandomPlanIsSeedDeterministic) {
  Rng rng(9);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(60, 4, 0.8, rng);
  FaultSpec spec;
  spec.crash_prob = 0.4;
  spec.permanent_prob = 0.25;
  spec.drop_prob = 0.05;
  spec.horizon = 6;
  spec.seed = 77;
  const FaultPlan a = FaultPlan::random(g, spec);
  const FaultPlan b = FaultPlan::random(g, spec);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].round, b.events()[i].round);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].up, b.events()[i].up);
    EXPECT_EQ(a.events()[i].permanent, b.events()[i].permanent);
  }
  EXPECT_TRUE(a.has_crashes());  // 60 nodes at p=0.4: vanishingly unlikely to be empty
  spec.seed = 78;
  const FaultPlan c = FaultPlan::random(g, spec);
  EXPECT_TRUE(a.events().size() != c.events().size() ||
              a.events().front().node != c.events().front().node ||
              a.events().front().round != c.events().front().round);
}

TEST(FaultPlan, SpecGrammar) {
  const FaultSpec spec = parse_fault_spec("crash=0.02,down=2-5,perm=0.1,drop=0.01,horizon=16,seed=7");
  EXPECT_DOUBLE_EQ(spec.crash_prob, 0.02);
  EXPECT_EQ(spec.min_down, 2);
  EXPECT_EQ(spec.max_down, 5);
  EXPECT_DOUBLE_EQ(spec.permanent_prob, 0.1);
  EXPECT_DOUBLE_EQ(spec.drop_prob, 0.01);
  EXPECT_EQ(spec.horizon, 16);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_THROW(parse_fault_spec("crash"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("warp=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=banana"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=2.0"), std::invalid_argument);
  // NaN is no probability (it passes a `p < 0 || p > 1` test).
  EXPECT_THROW(parse_fault_spec("crash=nan"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("perm=nan"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=nan"), std::invalid_argument);
  // Every value is consumed whole.
  EXPECT_THROW(parse_fault_spec("crash=0.5abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("down=2x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("horizon=3.7"), std::invalid_argument);
  // A signed seed would wrap to 2⁶⁴ − 1.
  EXPECT_THROW(parse_fault_spec("seed=-1"), std::invalid_argument);
}

// --- crash/restart/drop semantics ---------------------------------------

TEST(Faults, PermanentCrashRemovesNodeFromTheRun) {
  // chain(3).long_path is 0 -1- 1 -2- 2 -3- 3: nodes 0 and 1 match on the
  // colour-1 edge at round 0 (greedy needs no communication for step 1), so
  // the crash targets node 2, which is still running at round 1.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(3).long_path;
  FaultPlan plan;
  plan.add_crash(2, 1, 0);  // node 2, round 1, permanent
  for (EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    const RunResult r = run(kind, g, algo::greedy_program_factory(), {32, FaultOptions{&plan}});
    EXPECT_EQ(r.crashes, 1u) << engine_kind_name(kind);
    EXPECT_EQ(r.restarts, 0u) << engine_kind_name(kind);
    EXPECT_EQ(r.outputs[2], kUnmatched) << engine_kind_name(kind);
    EXPECT_EQ(r.halt_round[2], -1) << engine_kind_name(kind);
    // Everyone else still halts with a recorded round.
    for (std::size_t v = 0; v < r.outputs.size(); ++v) {
      if (v != 2) {
        EXPECT_GE(r.halt_round[v], 0) << engine_kind_name(kind) << " node " << v;
      }
    }
  }
}

TEST(Faults, TemporaryCrashRestartsAndHalts) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  FaultPlan plan;
  plan.add_crash(2, 1, 2);  // down rounds 1-2, restarts at 3
  for (EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    const RunResult r = run(kind, g, algo::greedy_program_factory(), {32, FaultOptions{&plan}});
    EXPECT_EQ(r.crashes, 1u) << engine_kind_name(kind);
    EXPECT_EQ(r.restarts, 1u) << engine_kind_name(kind);
    EXPECT_GE(r.halt_round[2], 0) << engine_kind_name(kind);  // came back and finished
  }
}

TEST(Faults, CrashOnHaltedNodeIsANoOp) {
  // Greedy on a single colour-1 edge halts both endpoints at round 1; a
  // crash scheduled later must not fire (the announced output is part of
  // the environment) and the result must equal the fault-free run.
  graph::EdgeColouredGraph g(2, 1);
  g.add_edge(0, 1, 1);
  FaultPlan plan;
  plan.add_crash(0, 3, 1);
  const RunResult clean = run_sync(g, algo::greedy_program_factory(), {8});
  for (EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    const RunResult r = run(kind, g, algo::greedy_program_factory(), {8, FaultOptions{&plan}});
    EXPECT_EQ(r.crashes, 0u) << engine_kind_name(kind);
    expect_same_result(clean, r, std::string("halted-crash no-op ") + engine_kind_name(kind));
  }
}

TEST(Faults, EventOutsideTheGraphIsRejected) {
  graph::EdgeColouredGraph g(2, 1);
  g.add_edge(0, 1, 1);
  FaultPlan plan;
  plan.add_crash(5, 1, 1);  // node 5 of a 2-node graph
  EXPECT_THROW(run_sync(g, algo::greedy_program_factory(), {8, FaultOptions{&plan}}),
               std::invalid_argument);
  EXPECT_THROW(run_flat(g, algo::greedy_program_factory(), {8, FaultOptions{&plan}}),
               std::invalid_argument);
}

TEST(Faults, EmptyPlanEqualsFaultFreeRun) {
  Rng rng(11);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(30, 4, 0.8, rng);
  const FaultPlan empty;
  const RunResult clean = run_sync(g, algo::greedy_program_factory(), {8});
  expect_same_result(clean,
                     run_sync(g, algo::greedy_program_factory(), {8, FaultOptions{&empty}}),
                     "empty plan sync");
  expect_same_result(clean, run_flat(g, algo::greedy_program_factory(), {8, FaultOptions{&empty}}),
                     "empty plan flat");
  EXPECT_EQ(clean.crashes, 0u);
  EXPECT_EQ(clean.messages_dropped, 0u);
}

// --- engine equivalence under faults ------------------------------------

std::vector<FlatEngineOptions> schedule_grid() {
  std::vector<FlatEngineOptions> grid;
  grid.push_back({});  // serial
  FlatEngineOptions threaded;
  threaded.threads = 3;
  grid.push_back(threaded);
  FlatEngineOptions shattered;
  shattered.threads = 4;
  shattered.chunk_slots = 1;
  grid.push_back(shattered);
  FlatEngineOptions no_steal;
  no_steal.threads = 2;
  no_steal.steal = false;
  grid.push_back(no_steal);
  return grid;
}

void expect_engines_agree_under(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                                int max_rounds, const FaultPlan& plan,
                                const std::string& context) {
  const RunResult oracle = run_sync(g, source, {max_rounds, FaultOptions{&plan}});
  int schedule = 0;
  for (const FlatEngineOptions& options : schedule_grid()) {
    expect_same_result(oracle, run_flat(g, source, {max_rounds, FaultOptions{&plan}}, options),
                       context + " [schedule " + std::to_string(schedule++) + "]");
  }
  // Determinism: the oracle agrees with itself on a second run.
  expect_same_result(oracle, run_sync(g, source, {max_rounds, FaultOptions{&plan}}),
                     context + " [repeat]");
}

TEST(Faults, EnginesAgreeOnRandomFaultyRuns) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    const int n = 6 + static_cast<int>(seed % 40);
    const int k = 2 + static_cast<int>(seed % 5);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.7, rng);
    FaultSpec spec;
    spec.crash_prob = 0.3;
    spec.permanent_prob = 0.3;
    spec.drop_prob = (seed % 3 == 0) ? 0.2 : 0.0;
    spec.horizon = k + 1;
    spec.seed = seed * 31 + 5;
    const FaultPlan plan = FaultPlan::random(g, spec);
    expect_engines_agree_under(g, algo::greedy_program_factory(), 64, plan,
                               "greedy n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                   " seed=" + std::to_string(seed));
  }
}

TEST(Faults, EnginesAgreeOnFloodingUnderFaults) {
  // Flooding spills past the inline slot bytes as views grow, so this also
  // exercises fault masking on the spill-arena path.
  const int k = 3;
  const graph::EdgeColouredGraph g = graph::worst_case_chain(k).long_path;
  const ProgramSource flood =
      flooding_program_factory(std::make_shared<algo::GreedyLocal>(k), k);
  FaultPlan crashes;
  crashes.add_crash(1, 1, 2);
  crashes.add_crash(3, 2, 0);  // long_path has k+1 = 4 nodes
  expect_engines_agree_under(g, flood, 64, crashes, "flooding crashes");
  FaultPlan drops;
  drops.set_drops(0.3, 99);
  expect_engines_agree_under(g, flood, 64, drops, "flooding drops");
}

TEST(Faults, EnginesAgreeWhenEverythingDrops) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(3).long_path;
  FaultPlan plan;
  plan.set_drops(1.0, 1);
  const RunResult oracle = run_sync(g, algo::greedy_program_factory(), {64, FaultOptions{&plan}});
  EXPECT_GT(oracle.messages_dropped, 0u);
  expect_same_result(oracle, run_flat(g, algo::greedy_program_factory(), {64, FaultOptions{&plan}}),
                     "total blackout");
}

// --- checkpoint / restore: interrupted equals uninterrupted --------------

struct CapturedRun {
  RunResult clean;
  std::vector<EngineCheckpoint> checkpoints;  // one per completed round
};

CapturedRun run_with_checkpoints(EngineKind kind, const graph::EdgeColouredGraph& g,
                                 const ProgramSource& source, int max_rounds,
                                 const FaultPlan* plan) {
  CapturedRun captured;
  CheckpointOptions every_round;
  every_round.every = 1;
  every_round.sink = [&](const EngineCheckpoint& cp) { captured.checkpoints.push_back(cp); };
  captured.clean = run(kind, g, source, {max_rounds, FaultOptions{plan}, every_round});
  return captured;
}

void expect_resume_equivalence(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                               int max_rounds, const FaultPlan* plan,
                               const std::string& context) {
  // Capture on both engines: the two captures must serialise to the same
  // bytes at every round, and restoring cross-engine (both directions)
  // must finish the uninterrupted run.
  const CapturedRun sync_run =
      run_with_checkpoints(EngineKind::kSync, g, source, max_rounds, plan);
  const CapturedRun flat_run =
      run_with_checkpoints(EngineKind::kFlat, g, source, max_rounds, plan);
  expect_same_result(sync_run.clean, flat_run.clean, context + " [uninterrupted]");
  ASSERT_EQ(sync_run.checkpoints.size(), flat_run.checkpoints.size()) << context;

  for (std::size_t i = 0; i < sync_run.checkpoints.size(); ++i) {
    const std::string at = context + " [kill after round " +
                           std::to_string(sync_run.checkpoints[i].round) + "]";
    // Serialise + reload: every resume below goes through the byte format.
    std::stringstream bytes;
    sync_run.checkpoints[i].write(bytes);
    std::stringstream flat_bytes;
    flat_run.checkpoints[i].write(flat_bytes);
    EXPECT_EQ(bytes.str(), flat_bytes.str()) << at << ": sync and flat captures differ";
    const EngineCheckpoint restored = EngineCheckpoint::read(bytes);

    CheckpointOptions resume;
    resume.resume = &restored;
    expect_same_result(sync_run.clean,
                       run_sync(g, source, {max_rounds, FaultOptions{plan}, resume}),
                       at + " sync→sync");
    expect_same_result(sync_run.clean,
                       run_flat(g, source, {max_rounds, FaultOptions{plan}, resume}),
                       at + " sync→flat");

    // Flat-captured checkpoint back into the sync oracle.
    CheckpointOptions resume_flat;
    resume_flat.resume = &flat_run.checkpoints[i];
    expect_same_result(sync_run.clean,
                       run_sync(g, source, {max_rounds, FaultOptions{plan}, resume_flat}),
                       at + " flat→sync");
  }
}

TEST(Checkpoint, GreedyKillAtEveryRound) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  expect_resume_equivalence(g, algo::greedy_program_factory(), 16, nullptr, "greedy chain k=5");
}

TEST(Checkpoint, GreedyKillAtEveryRoundUnderFaults) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  FaultPlan plan;
  plan.add_crash(2, 1, 2);
  plan.add_crash(5, 3, 0);  // long_path has k+1 = 6 nodes
  plan.set_drops(0.15, 12);
  expect_resume_equivalence(g, algo::greedy_program_factory(), 64, &plan,
                            "greedy chain k=5 faulty");
}

TEST(Checkpoint, FloodingKillAtEveryRound) {
  // Flooding's save_state is a serialised colour system that grows with the
  // round — the checkpoint carries real per-node program state, not flags.
  const int k = 4;
  const graph::EdgeColouredGraph g = graph::worst_case_chain(k).long_path;
  const ProgramSource flood =
      flooding_program_factory(std::make_shared<algo::GreedyLocal>(k), k);
  expect_resume_equivalence(g, flood, 16, nullptr, "flooding chain k=4");
  FaultPlan plan;
  plan.add_crash(1, 1, 2);
  expect_resume_equivalence(g, flood, 64, &plan, "flooding chain k=4 faulty");
}

TEST(Checkpoint, RandomGraphKillAtEveryRound) {
  Rng rng(23);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(40, 6, 0.8, rng);
  FaultSpec spec;
  spec.crash_prob = 0.2;
  spec.permanent_prob = 0.2;
  spec.drop_prob = 0.1;
  spec.horizon = 5;
  spec.seed = 4242;
  const FaultPlan plan = FaultPlan::random(g, spec);
  expect_resume_equivalence(g, algo::greedy_program_factory(), 64, &plan, "random n=40 k=6");
}

TEST(Checkpoint, GreedyKillAtEveryRoundWhileMostNodesSleep) {
  // On a hub cluster with colours 8..55, each hub matches its colour-8 leaf
  // in round 7 and halts, and every other leaf sleeps from round 1 until
  // the round that reads its one colour: at most captures nearly every
  // running node is asleep on the flat engine.  Its
  // captures must still be byte-identical to run_sync's (the sleepers'
  // messages counted, their state untouched), and a resumed flat run asks
  // the programs again and sleeps from there.
  const graph::EdgeColouredGraph g =
      graph::hub_cluster_graph(/*hubs=*/3, /*hub_degree=*/48, /*first_colour=*/8);
  expect_resume_equivalence(g, algo::greedy_program_factory(), g.k() + 1, nullptr,
                            "greedy hub_cluster(3,48,8)");
}

TEST(Checkpoint, FlatEngineObjectCheckpointStream) {
  // The FlatEngine object API: checkpoint(ostream) from a sink, then a
  // fresh engine restore(istream) + run() to the bit-identical result.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  const ProgramSource source = algo::greedy_program_factory();
  const RunResult clean = run_flat(g, source, {16});

  std::stringstream bytes;
  int captured_round = 0;
  {
    FlatEngine engine(g, source, 16, {});
    CheckpointOptions opts;
    opts.every = 2;
    opts.sink = [&](const EngineCheckpoint& cp) {
      if (cp.round == 2) {
        bytes.str("");
        engine.checkpoint(bytes);
        captured_round = cp.round;
      }
    };
    expect_same_result(clean, engine.run(FaultOptions{}, opts), "checkpointed run");
  }
  ASSERT_EQ(captured_round, 2);

  FlatEngineOptions threaded;
  threaded.threads = 3;
  FlatEngine resumed(g, source, 16, threaded);
  resumed.restore(bytes);
  expect_same_result(clean, resumed.run(), "restored engine");
}

TEST(Checkpoint, SinkFiresOnTheRequestedCadence) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(6).long_path;
  std::vector<int> rounds;
  CheckpointOptions opts;
  opts.every = 2;
  opts.sink = [&](const EngineCheckpoint& cp) { rounds.push_back(cp.round); };
  const RunResult r = run_sync(g, algo::greedy_program_factory(), {16, FaultOptions{}, opts});
  ASSERT_FALSE(rounds.empty());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], 2 * static_cast<int>(i + 1));
    EXPECT_LT(rounds[i], r.rounds);  // only while someone is still running
  }
}

// --- failure modes -------------------------------------------------------

TEST(Checkpoint, CorruptedBytesAreNeverSilentlyResumed) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  const CapturedRun captured =
      run_with_checkpoints(EngineKind::kSync, g, algo::greedy_program_factory(), 16, nullptr);
  ASSERT_FALSE(captured.checkpoints.empty());
  std::stringstream clean;
  captured.checkpoints.front().write(clean);
  const std::string bytes = clean.str();

  // Every truncation is rejected.
  for (std::size_t keep : {std::size_t{0}, bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW(EngineCheckpoint::read(in), io::CorruptFrameError) << "prefix " << keep;
  }
  // Every byte flip is rejected (frame checksums cover the whole stream).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(static_cast<unsigned char>(damaged[i]) ^ 0x20);
    std::istringstream in(damaged);
    EXPECT_THROW(EngineCheckpoint::read(in), std::runtime_error) << "byte " << i;
  }
}

TEST(Checkpoint, WrongInstanceIsRejected) {
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  const CapturedRun captured =
      run_with_checkpoints(EngineKind::kSync, g, algo::greedy_program_factory(), 16, nullptr);
  ASSERT_FALSE(captured.checkpoints.empty());
  const graph::EdgeColouredGraph other = graph::worst_case_chain(4).short_path;
  CheckpointOptions resume;
  resume.resume = &captured.checkpoints.front();
  EXPECT_THROW(run_sync(other, algo::greedy_program_factory(), {16, FaultOptions{}, resume}),
               CheckpointError);
  EXPECT_THROW(
      {
        FlatEngine engine(other, algo::greedy_program_factory(), 16, {});
        engine.restore(captured.checkpoints.front());
      },
      CheckpointError);
}

TEST(Checkpoint, FingerprintDependsOnlyOnTheEdgeSet) {
  // Path 0-1-2-3 with colours 1,2,1, built three ways: in order; in
  // reverse with every edge flipped; and through a detour that inserts and
  // removes extra edges, which leaves edges() in yet another order.
  graph::EdgeColouredGraph forward(5, 3);
  forward.add_edge(0, 1, 1);
  forward.add_edge(1, 2, 2);
  forward.add_edge(2, 3, 1);
  graph::EdgeColouredGraph flipped(5, 3);
  flipped.add_edge(3, 2, 1);
  flipped.add_edge(2, 1, 2);
  flipped.add_edge(1, 0, 1);
  graph::EdgeColouredGraph detour(5, 3);
  detour.add_edge(1, 2, 2);
  detour.add_edge(0, 4, 3);
  detour.add_edge(2, 3, 1);
  detour.add_edge(0, 1, 1);
  detour.remove_edge(4, 0);  // {0,1} moves into slot 1
  ASSERT_EQ(detour.edges()[0].u, 1);  // edges() order differs from forward's
  const std::uint64_t fp = forward.fingerprint();
  EXPECT_EQ(flipped.fingerprint(), fp);
  EXPECT_EQ(detour.fingerprint(), fp);

  // Recolouring one edge, or changing n or k, changes the fingerprint.
  graph::EdgeColouredGraph recoloured = forward;
  recoloured.remove_edge(1, 2);
  recoloured.add_edge(1, 2, 3);
  EXPECT_NE(recoloured.fingerprint(), fp);
  graph::EdgeColouredGraph wider(5, 4);
  graph::EdgeColouredGraph bigger(6, 3);
  for (const graph::Edge& e : forward.edges()) {
    wider.add_edge(e.u, e.v, e.colour);
    bigger.add_edge(e.u, e.v, e.colour);
  }
  EXPECT_NE(wider.fingerprint(), fp);
  EXPECT_NE(bigger.fingerprint(), fp);
}

TEST(Checkpoint, SurvivesChurnThroughAPlanAndItsInverse) {
  Rng rng(31);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(200, 6, 0.7, rng);
  const CapturedRun captured =
      run_with_checkpoints(EngineKind::kSync, g, algo::greedy_program_factory(), 16, nullptr);
  ASSERT_FALSE(captured.checkpoints.empty());
  const EngineCheckpoint& cp = captured.checkpoints.front();

  dyn::ChurnSpec spec;
  spec.batches = 8;
  spec.ops_per_batch = 16;
  spec.seed = 5;
  const dyn::ChurnPlan plan = dyn::ChurnPlan::random(g, spec);
  graph::EdgeColouredGraph churned = g;
  const auto apply = [&](const dyn::ChurnOp& op, bool invert) {
    if ((op.kind == dyn::ChurnOp::Kind::kInsert) != invert) {
      churned.add_edge(op.u, op.v, op.colour);
    } else {
      churned.remove_edge(op.u, op.v);
    }
  };
  for (const dyn::ChurnBatch& b : plan.batches()) {
    for (const dyn::ChurnOp& op : b.ops) apply(op, false);
  }
  for (auto b = plan.batches().rbegin(); b != plan.batches().rend(); ++b) {
    for (auto op = b->ops.rbegin(); op != b->ops.rend(); ++op) apply(*op, true);
  }

  // Same edge set, different edge order: the checkpoint still applies.
  ASSERT_EQ(churned.edge_count(), g.edge_count());
  bool reordered = false;
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    const graph::Edge& a = g.edges()[i];
    const graph::Edge& b = churned.edges()[i];
    reordered = reordered || a.u != b.u || a.v != b.v || a.colour != b.colour;
  }
  ASSERT_TRUE(reordered);
  EXPECT_NO_THROW(cp.require_matches(churned));
}

TEST(Checkpoint, VersionOneFilesAreUnsupported) {
  // A version-1 file's fingerprint was an order-dependent hash, so it is
  // refused by version before any fingerprint comparison.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(4).long_path;
  const CapturedRun captured =
      run_with_checkpoints(EngineKind::kSync, g, algo::greedy_program_factory(), 16, nullptr);
  ASSERT_FALSE(captured.checkpoints.empty());
  std::stringstream current;
  captured.checkpoints.front().write(current);
  std::stringstream v1;
  for (const char* type : {"CKPH", "CKPN", "CKPP"}) {
    io::write_frame(v1, type, 1, io::read_frame(current, type).payload);
  }
  try {
    EngineCheckpoint::read(v1);
    FAIL() << "a version-1 checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 1"), std::string::npos)
        << e.what();
  }
}

/// Decodes a real mid-run checkpoint, edits one field at a time into
/// something no run produces, re-encodes it (so every frame checksum is
/// valid again — FNV-1a does not resist crafted input) and requires both
/// engines' restores to refuse it; the unedited bytes must still resume
/// bit-identically.  Returns the number of edits tried.
int fuzz_checkpoint_fields(const graph::EdgeColouredGraph& g, const FaultPlan* plan,
                           const std::string& context) {
  const ProgramSource source = algo::greedy_program_factory();
  const CapturedRun captured = run_with_checkpoints(EngineKind::kSync, g, source, 64, plan);
  EXPECT_GE(captured.checkpoints.size(), 2u) << context;
  if (captured.checkpoints.size() < 2) return 0;
  // After round 2 both halted and live nodes exist.
  const EngineCheckpoint& cp = captured.checkpoints[1];
  const auto encode = [](const EngineCheckpoint& c) {
    std::stringstream bytes;
    c.write(bytes);
    return bytes.str();
  };
  const auto resume = [&](const std::string& bytes, EngineKind kind) {
    std::istringstream in(bytes);
    const EngineCheckpoint decoded = EngineCheckpoint::read(in);
    CheckpointOptions options;
    options.resume = &decoded;
    return run(kind, g, source, {64, FaultOptions{plan}, options});
  };
  const std::string clean = encode(cp);
  for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    expect_same_result(captured.clean, resume(clean, kind),
                       context + " unedited on " + engine_kind_name(kind));
  }

  int edits = 0;
  const auto expect_rejected = [&](const EngineCheckpoint& edited, const std::string& what) {
    const std::string bytes = encode(edited);
    for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
      EXPECT_ANY_THROW(resume(bytes, kind)) << context << ": " << what << " on "
                                            << engine_kind_name(kind);
    }
    ++edits;
  };
  std::size_t blob = 0;
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const std::vector<Colour> incident = g.incident_colours(v);
    std::vector<Colour> foreign;  // colours the node has no edge of
    for (int c = 1; c <= g.k() + 1; ++c) {
      if (std::find(incident.begin(), incident.end(), c) == incident.end()) {
        foreign.push_back(static_cast<Colour>(c));
      }
    }
    foreign.push_back(255);
    const std::string node = "node " + std::to_string(v);
    EngineCheckpoint edited = cp;
    if (cp.halted[i]) {
      for (const Colour c : foreign) {
        edited.outputs[i] = c;
        expect_rejected(edited, node + " halted on non-incident colour " + std::to_string(c));
      }
      edited = cp;
      edited.halt_round[i] = cp.round + 1;
      expect_rejected(edited, node + " halted after the checkpoint round");
      edited = cp;
      edited.down[i] = 1;
      expect_rejected(edited, node + " halted and down");
      continue;
    }
    for (const Colour c : incident) {
      edited.outputs[i] = c;
      expect_rejected(edited, node + " not halted but outputs " + std::to_string(c));
    }
    edited = cp;
    edited.halt_round[i] = cp.round;
    expect_rejected(edited, node + " halt round without the halted flag");
    if (cp.dead[i]) continue;
    // A live node's greedy state blob is {matched, output}.
    for (const Colour c : incident) {
      edited = cp;
      edited.program_state[blob] = std::string{'\0', static_cast<char>(c)};
      expect_rejected(edited, node + " unmatched state with output " + std::to_string(c));
    }
    for (const Colour c : foreign) {
      edited = cp;
      edited.program_state[blob] = std::string{'\1', static_cast<char>(c)};
      expect_rejected(edited, node + " matched state on non-incident " + std::to_string(c));
    }
    edited = cp;
    edited.program_state[blob] = std::string{'\2', '\0'};
    expect_rejected(edited, node + " malformed state");
    ++blob;
  }
  EXPECT_EQ(blob, cp.program_state.size()) << context;
  return edits;
}

TEST(Checkpoint, CraftedFieldsAreRejectedOnRestore) {
  Rng rng(57);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(48, 5, 0.8, rng);
  EXPECT_GT(fuzz_checkpoint_fields(g, nullptr, "fault-free"), 200);
  FaultSpec spec;
  spec.crash_prob = 0.25;
  spec.permanent_prob = 0.3;
  spec.horizon = 3;
  spec.seed = 91;
  const FaultPlan plan = FaultPlan::random(g, spec);
  EXPECT_GT(fuzz_checkpoint_fields(g, &plan, "faulty"), 200);
}

/// Runs forever-ish with no save_state override.
class Oblivious final : public NodeProgram {
 public:
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox&) override {}
  bool receive(int round, const Inbox&) override { return round >= 4; }
  Colour output() const override { return kUnmatched; }
};

TEST(Checkpoint, ProgramWithoutSaveStateFailsLoudly) {
  graph::EdgeColouredGraph g(2, 1);
  g.add_edge(0, 1, 1);
  CheckpointOptions opts;
  opts.every = 1;
  opts.sink = [](const EngineCheckpoint&) {};
  EXPECT_THROW(run_sync(g, [] { return Oblivious(); }, {16, {}, opts}), std::logic_error);
  EXPECT_THROW(run_flat(g, [] { return Oblivious(); }, {16, {}, opts}), std::logic_error);
}

}  // namespace
}  // namespace dmm::local

// --- lower-bound side: evaluator + hunt checkpoints ----------------------

namespace dmm::lower {
namespace {

/// A template with a non-trivial node set to sweep: the tight pair's S_d
/// side from the adversary run against the (correct) greedy algorithm.
Template tight_template(int k) {
  const algo::GreedyLocal greedy(k);
  LowerBoundResult result = run_adversary(k, greedy);
  EXPECT_TRUE(result.tight());
  return std::get<TightPair>(std::move(result.outcome)).u;
}

TEST(EvaluatorCheckpoint, SaveLoadRoundTripPreservesHistory) {
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);

  Evaluator original(greedy);
  for (NodeId v : tmpl.tree().nodes_up_to(2)) (void)original(tmpl, v);
  ASSERT_GT(original.evaluations(), 0u);

  std::stringstream bytes;
  original.save(bytes);

  Evaluator loaded(greedy);
  loaded.load(bytes);
  EXPECT_EQ(loaded.evaluations(), original.evaluations());
  EXPECT_EQ(loaded.memo_hits(), original.memo_hits());
  EXPECT_EQ(loaded.memo_entries(), original.memo_entries());

  // Future answers and memo behaviour are identical: re-probing the same
  // nodes is pure hits on both, and the answers agree node by node.
  for (NodeId v : tmpl.tree().nodes_up_to(2)) {
    EXPECT_EQ(loaded(tmpl, v), original(tmpl, v)) << "node " << v;
  }
  EXPECT_EQ(loaded.evaluations(), original.evaluations());
  EXPECT_EQ(loaded.memo_hits(), original.memo_hits());
}

TEST(EvaluatorCheckpoint, VersionOneStateIsUnsupported) {
  // Version 1 carried the orbit memo's sections; its payload no longer
  // parses as version 2, so it is refused by version before any field.
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);
  Evaluator original(greedy);
  for (NodeId v : tmpl.tree().nodes_up_to(2)) (void)original(tmpl, v);
  std::stringstream current;
  original.save(current);
  std::stringstream v1;
  io::write_frame(v1, "EVAL", 1, io::read_frame(current, "EVAL").payload);
  Evaluator fresh(greedy);
  try {
    fresh.load(v1);
    FAIL() << "a version-1 evaluator state was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported state version 1"), std::string::npos)
        << e.what();
  }
}

TEST(EvaluatorCheckpoint, MismatchedTargetsAreRejected) {
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);
  Evaluator original(greedy);
  (void)original(tmpl, colsys::ColourSystem::root());
  std::stringstream bytes;
  original.save(bytes);

  // Not fresh: has already evaluated something.
  Evaluator dirty(greedy);
  (void)dirty(tmpl, colsys::ColourSystem::root());
  std::stringstream copy1(bytes.str());
  EXPECT_THROW(dirty.load(copy1), std::runtime_error);

  // Different algorithm name.
  const algo::TruncatedGreedy fast(k, 1);
  Evaluator wrong_algo(fast);
  std::stringstream copy2(bytes.str());
  EXPECT_THROW(wrong_algo.load(copy2), std::runtime_error);

  // Different memo mode.
  Evaluator wrong_mode(greedy, /*memoise=*/false);
  std::stringstream copy3(bytes.str());
  EXPECT_THROW(wrong_mode.load(copy3), std::runtime_error);
}

TEST(HuntCheckpoint, ResumedHuntMatchesUninterrupted) {
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);
  const int limit = std::max(k - 1, greedy.running_time() + 2);

  // Uninterrupted sweep: correct greedy, so no violation — the sweep visits
  // every node, the interesting case for resume.
  Evaluator whole(greedy);
  EXPECT_FALSE(hunt_violation(tmpl, whole, limit).has_value());

  // Interrupted sweep: save a checkpoint a few nodes in, throw the rest of
  // the run away ("the process died"), reload into a fresh evaluator and
  // finish from the saved cursor.
  std::stringstream bytes;
  bool saved = false;
  {
    Evaluator doomed(greedy);
    HuntControl control;
    control.checkpoint_every = 3;
    control.sink = [&](std::size_t next_index) {
      if (saved) return;  // keep the *first* checkpoint: maximal remaining work
      save_hunt_checkpoint(bytes, tmpl, limit, next_index, doomed);
      saved = true;
    };
    EXPECT_FALSE(hunt_violation(tmpl, doomed, limit, control).has_value());
  }
  ASSERT_TRUE(saved);

  Evaluator resumed_eval(greedy);
  const HuntCheckpoint cp = load_hunt_checkpoint(bytes, resumed_eval);
  EXPECT_EQ(cp.norm_limit, limit);
  EXPECT_GT(cp.next_index, 0u);
  HuntControl resume;
  resume.start_index = cp.next_index;
  EXPECT_FALSE(hunt_violation(cp.tmpl, resumed_eval, cp.norm_limit, resume).has_value());

  // The evaluation history converges to the uninterrupted run's.
  EXPECT_EQ(resumed_eval.evaluations(), whole.evaluations());
  EXPECT_EQ(resumed_eval.memo_hits(), whole.memo_hits());
  EXPECT_EQ(resumed_eval.memo_entries(), whole.memo_entries());
}

TEST(HuntCheckpoint, ResumedHuntMatchesUninterruptedOnARefutedAlgorithm) {
  // Against a too-fast algorithm the adversary refutes; re-hunting the
  // certificate's own template resumed mid-sweep must reach exactly the
  // same outcome (the same certificate, or the same "nothing in range") as
  // the uninterrupted sweep.
  const int k = 4;
  const algo::TruncatedGreedy fast(k, 2);
  LowerBoundResult result = run_adversary(k, fast);
  ASSERT_TRUE(result.refuted());
  const Certificate& archived = std::get<Certificate>(result.outcome);
  const int limit = std::max(k - 1, fast.running_time() + 2);

  Evaluator whole(fast);
  const std::optional<Certificate> direct =
      hunt_violation(archived.instance, whole, limit);

  std::stringstream bytes;
  bool saved = false;
  {
    Evaluator doomed(fast);
    HuntControl control;
    control.checkpoint_every = 1;
    control.sink = [&](std::size_t next_index) {
      if (saved) return;
      save_hunt_checkpoint(bytes, archived.instance, limit, next_index, doomed);
      saved = true;
    };
    const std::optional<Certificate> interrupted =
        hunt_violation(archived.instance, doomed, limit, control);
    EXPECT_EQ(interrupted.has_value(), direct.has_value());
    // If the sweep decided before probing its second node there is no
    // checkpoint to resume from — the equivalence is then already covered.
    if (!saved) return;
  }

  Evaluator resumed_eval(fast);
  const HuntCheckpoint cp = load_hunt_checkpoint(bytes, resumed_eval);
  HuntControl resume;
  resume.start_index = cp.next_index;
  const std::optional<Certificate> again =
      hunt_violation(cp.tmpl, resumed_eval, cp.norm_limit, resume);
  ASSERT_EQ(again.has_value(), direct.has_value());
  if (direct.has_value()) {
    EXPECT_EQ(again->kind, direct->kind);
    EXPECT_EQ(again->node, direct->node);
    EXPECT_EQ(again->other, direct->other);
    EXPECT_EQ(again->colour, direct->colour);
    EXPECT_EQ(again->output, direct->output);
    EXPECT_EQ(again->other_output, direct->other_output);
    EXPECT_EQ(again->detail, direct->detail);
    EXPECT_EQ(resumed_eval.evaluations(), whole.evaluations());
    EXPECT_EQ(resumed_eval.memo_hits(), whole.memo_hits());
  }
}

TEST(HuntCheckpoint, CursorPastTheSweepIsRejected) {
  // The direct hunt on a refuted algorithm's certificate template finds a
  // breach; a checkpoint whose cursor lies past the sweep must not turn
  // that into "nothing found" by skipping every node.
  const int k = 4;
  const algo::TruncatedGreedy fast(k, 2);
  LowerBoundResult result = run_adversary(k, fast);
  ASSERT_TRUE(result.refuted());
  const Template& instance = std::get<Certificate>(result.outcome).instance;
  const int limit = std::max(k - 1, fast.running_time() + 2);
  Evaluator whole(fast);
  ASSERT_TRUE(hunt_violation(instance, whole, limit).has_value());

  std::stringstream bytes;
  save_hunt_checkpoint(bytes, instance, limit, 1'000'000, Evaluator(fast));
  Evaluator resumed_eval(fast);
  const HuntCheckpoint cp = load_hunt_checkpoint(bytes, resumed_eval);
  HuntControl resume;
  resume.start_index = cp.next_index;
  EXPECT_THROW(hunt_violation(cp.tmpl, resumed_eval, cp.norm_limit, resume),
               std::invalid_argument);
  // Start index 0 is always a whole sweep, even of an empty node list.
  EXPECT_FALSE(hunt_violation(cp.tmpl, resumed_eval, -1, HuntControl{}).has_value());
}

TEST(HuntCheckpoint, NormLimitOutsideIntIsRejected) {
  // A frame whose checksum is valid but whose norm limit does not fit an
  // int is refused, not narrowed (2^40 would read as 0).
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);
  for (const std::int64_t limit : {std::int64_t{1} << 40, -(std::int64_t{1} << 40)}) {
    io::ByteWriter w;
    w.bytes(io::write_template(tmpl));
    w.svarint(limit);
    w.varint(0);
    std::stringstream bytes;
    io::write_frame(bytes, "HUNT", 1, w.buffer());
    Evaluator(greedy).save(bytes);
    Evaluator fresh(greedy);
    EXPECT_THROW(load_hunt_checkpoint(bytes, fresh), std::runtime_error) << limit;
  }
}

TEST(HuntCheckpoint, CorruptedHuntBytesAreRejected) {
  const int k = 3;
  const Template tmpl = tight_template(k);
  const algo::GreedyLocal greedy(k);
  Evaluator eval(greedy);
  (void)eval(tmpl, colsys::ColourSystem::root());
  std::stringstream clean;
  save_hunt_checkpoint(clean, tmpl, 2, 5, eval);
  const std::string bytes = clean.str();
  Rng rng(5150);
  for (int trial = 0; trial < 64; ++trial) {
    std::string damaged = bytes;
    const std::size_t at = rng.index(damaged.size());
    damaged[at] = static_cast<char>(static_cast<unsigned char>(damaged[at]) ^
                                    static_cast<unsigned char>(1 + rng.index(255)));
    std::istringstream in(damaged);
    Evaluator fresh(greedy);
    EXPECT_THROW(load_hunt_checkpoint(in, fresh), std::runtime_error) << "byte " << at;
  }
}

}  // namespace
}  // namespace dmm::lower
