// The run-state bookkeeping both engines share (local/run_state.hpp):
// fault application, halt recording, message totals, the checkpoint sink's
// cadence and capture, and the restore overlay.
//
// The engine-equivalence suites compare the engines with each other, so a
// bug in code the two share would pass them.  This suite compares both
// against values worked out by hand instead, on one small faulty run whose
// every round is derived in the comments below.
#include "local/run_state.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "local/checkpoint.hpp"
#include "local/faults.hpp"
#include "local/flat_engine.hpp"

namespace dmm::local {
namespace {

/// Sends one byte, "x", on every port each round and counts the "x"s it
/// hears (an absent message or a halted neighbour's announcement is not
/// one).  Halts in the first round >= `halt_at` in which it is up (0 = at
/// init).  Its output is the count + 1, so a recorded output is never ⊥.
class PortChirper final : public NodeProgram {
 public:
  explicit PortChirper(int halt_at) : halt_at_(halt_at) {}
  bool init(std::span<const Colour>) override { return halt_at_ == 0; }
  void send(int, Outbox& out) override {
    for (int port = 0; port < out.ports(); ++port) out.set(port, "x");
  }
  bool receive(int round, const Inbox& in) override {
    for (int port = 0; port < in.ports(); ++port) heard_ += in.at(port) == "x" ? 1 : 0;
    return round >= halt_at_;
  }
  Colour output() const override { return static_cast<Colour>(heard_ + 1); }
  void save_state(std::string& out) const override { out = std::to_string(heard_); }
  void load_state(std::string_view in) override { heard_ = std::stoi(std::string(in)); }

 private:
  int halt_at_;
  int heard_ = 0;
};

// The instance: the path 0 —1— 1 —3— 2 —1— 3 —2— 4 (edge colours between
// the nodes; colour 3 in the middle makes every output recorded below an
// incident colour of its node, as restoring a halted node requires),
// programs asking to halt at init (node 0) and at rounds 4, 3, 5 and 6
// (nodes 1 to 4), and this fault plan:
//
//   node 0: crash at 1, restart at 2 — both no-ops, node 0 halted at init;
//   node 1: two crashes at 2 (the second hits a down node and still
//           counts), restarts at 3 and — a no-op, it is up — at 4;
//   node 3: down in rounds 1-2; at 3 restarted and re-crashed (the restart
//           sorts first), restarts again at 4;
//   node 4: crashes for good at 2.
//
// Round by round (a node that is up and has not halted sends "x" on each
// port; h_v is node v's count of "x"s heard; "!1" is node 0's announcement):
//
//   0  node 0 halts at init, output 0 + 1 = 1.                 running 4
//   1  faults: crash 0 (no-op), crash 3 (crashes 1).
//      senders 1, 2, 4: 2 + 2 + 1 = 5 messages (5 in all).
//      1 hears "!1" and 2's x: h1 = 1.  2 hears nothing from the
//      down 3 and 1's x: h2 = 1.  4 hears nothing from 3: h4 = 0.
//   2  faults: restart 0 (no-op), crash 1 twice (crashes 2, 3), crash 4
//      for good (crashes 4).                                    running 3
//      sender 2: 2 messages (7).  2 hears nothing: 3 and 1 are down.
//      -- checkpoint: halted {0}, down {1, 3, 4}, dead {4}, states of
//         nodes 1, 2, 3 = h1, h2, h3 = "1", "1", "0" --
//   3  faults: restart 1 (restarts 1), restart 3 (restarts 2), crash 3
//      (crashes 5).
//      senders 1, 2: 4 messages (11).  1 hears 2's x: h1 = 2.  2 hears 1's
//      x: h2 = 2; round 3 >= 3, so 2 halts, output 3.         running 2
//   4  faults: restart 1 (no-op: up), restart 3 (restarts 3).
//      senders 1, 3: 4 messages (15).  1 hears "!1" and "!3": h1 = 2;
//      halts, output 3.  3 hears "!3" and nothing from the dead 4: h3 = 0.
//                                                               running 1
//   5  sender 3: 2 messages (17).  3 halts, output 0 + 1 = 1.   running 0
//
// Every message is one byte, none is dropped, node 4 never halts (output
// ⊥, halt round −1), and the run takes 5 rounds.  A sink fires after
// rounds 1-4 when asked for every round, after 2 and 4 when asked for
// every second: never after 5, when nobody is running.

graph::EdgeColouredGraph path() {
  graph::EdgeColouredGraph g(5, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 3);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 4, 2);
  return g;
}

ProgramSource chirpers() {
  return [node = 0]() mutable {
    static constexpr int kHaltAt[] = {0, 4, 3, 5, 6};
    return PortChirper(kHaltAt[node++ % 5]);
  };
}

FaultPlan hand_plan() {
  FaultPlan plan;
  plan.add_crash(0, 1, 1);
  plan.add_crash(1, 2, 1);
  plan.add_crash(1, 2, 2);
  plan.add_crash(3, 1, 2);
  plan.add_crash(3, 3, 1);
  plan.add_crash(4, 2, 0);
  return plan;
}

struct Engine {
  std::string name;
  std::function<RunResult(const graph::EdgeColouredGraph&, const ProgramSource&,
                          const RunOptions&)>
      run;
};

std::vector<Engine> engines() {
  FlatEngineOptions threaded;
  threaded.threads = 3;
  return {
      {"sync", [](const auto& g, const auto& s, const auto& o) { return run_sync(g, s, o); }},
      {"flat", [](const auto& g, const auto& s, const auto& o) { return run_flat(g, s, o); }},
      {"flat threads=3",
       [threaded](const auto& g, const auto& s, const auto& o) {
         return run_flat(g, s, o, threaded);
       }},
  };
}

void expect_final_result(const RunResult& r, const std::string& context) {
  EXPECT_EQ(r.crashes, 5u) << context;
  EXPECT_EQ(r.restarts, 3u) << context;
  EXPECT_EQ(r.messages_dropped, 0u) << context;
  EXPECT_EQ(r.messages_sent, 17u) << context;
  EXPECT_EQ(r.total_message_bytes, 17u) << context;
  EXPECT_EQ(r.max_message_bytes, 1u) << context;
  EXPECT_EQ(r.halt_round, (std::vector<int>{0, 4, 3, 5, -1})) << context;
  EXPECT_EQ(r.outputs, (std::vector<Colour>{1, 3, 3, 1, kUnmatched})) << context;
  EXPECT_EQ(r.rounds, 5) << context;
}

void expect_round_two(const EngineCheckpoint& cp, const graph::EdgeColouredGraph& g,
                      const std::string& context) {
  EXPECT_EQ(cp.node_count, 5) << context;
  EXPECT_EQ(cp.k, 3) << context;
  EXPECT_EQ(cp.edge_hash, g.fingerprint()) << context;
  EXPECT_EQ(cp.round, 2) << context;
  EXPECT_EQ(cp.running, 3) << context;
  EXPECT_EQ(cp.crashes, 4u) << context;
  EXPECT_EQ(cp.restarts, 0u) << context;
  EXPECT_EQ(cp.messages_dropped, 0u) << context;
  EXPECT_EQ(cp.max_message_bytes, 1u) << context;
  EXPECT_EQ(cp.total_message_bytes, 7u) << context;
  EXPECT_EQ(cp.messages_sent, 7u) << context;
  EXPECT_EQ(cp.outputs, (std::vector<Colour>{1, kUnmatched, kUnmatched, kUnmatched, kUnmatched}))
      << context;
  EXPECT_EQ(cp.halt_round, (std::vector<std::int32_t>{0, -1, -1, -1, -1})) << context;
  EXPECT_EQ(cp.halted, (std::vector<std::uint8_t>{1, 0, 0, 0, 0})) << context;
  EXPECT_EQ(cp.down, (std::vector<std::uint8_t>{0, 1, 0, 1, 1})) << context;
  EXPECT_EQ(cp.dead, (std::vector<std::uint8_t>{0, 0, 0, 0, 1})) << context;
  EXPECT_EQ(cp.program_state, (std::vector<std::string>{"1", "1", "0"})) << context;
}

TEST(RunState, HandComputedFaultyRunOnBothEngines) {
  const graph::EdgeColouredGraph g = path();
  const FaultPlan plan = hand_plan();
  for (const Engine& engine : engines()) {
    std::vector<EngineCheckpoint> captured;
    CheckpointOptions every_two;
    every_two.every = 2;
    every_two.sink = [&](const EngineCheckpoint& cp) { captured.push_back(cp); };
    expect_final_result(engine.run(g, chirpers(), {16, {&plan}, every_two}), engine.name);
    ASSERT_EQ(captured.size(), 2u) << engine.name;
    EXPECT_EQ(captured[1].round, 4) << engine.name;
    EXPECT_EQ(captured[1].running, 1) << engine.name;
    expect_round_two(captured[0], g, engine.name);
  }
}

TEST(RunState, HandComputedResumeFromEveryRound) {
  // Every checkpoint of the run, through the byte format, restored on every
  // engine: the resumed run ends exactly as the uninterrupted one, and the
  // sink carries on from the checkpoint's round.
  const graph::EdgeColouredGraph g = path();
  const FaultPlan plan = hand_plan();
  std::vector<std::string> bytes;
  CheckpointOptions capture;
  capture.every = 1;
  capture.sink = [&](const EngineCheckpoint& cp) {
    std::ostringstream out;
    cp.write(out);
    bytes.push_back(out.str());
  };
  (void)run_sync(g, chirpers(), {16, {&plan}, capture});
  ASSERT_EQ(bytes.size(), 4u);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::istringstream in(bytes[i]);
    const EngineCheckpoint checkpoint = EngineCheckpoint::read(in);
    ASSERT_EQ(checkpoint.round, static_cast<int>(i) + 1);
    if (checkpoint.round == 2) expect_round_two(checkpoint, g, "decoded");
    std::vector<int> expected_sink;
    for (int r = checkpoint.round + 1; r <= 4; ++r) expected_sink.push_back(r);
    for (const Engine& engine : engines()) {
      const std::string context = engine.name + " resumed after round " +
                                  std::to_string(checkpoint.round);
      std::vector<int> sink_rounds;
      CheckpointOptions resume;
      resume.resume = &checkpoint;
      resume.every = 1;
      resume.sink = [&](const EngineCheckpoint& cp) { sink_rounds.push_back(cp.round); };
      expect_final_result(engine.run(g, chirpers(), {16, {&plan}, resume}), context);
      EXPECT_EQ(sink_rounds, expected_sink) << context;
    }
  }
}

TEST(RunState, RoundBudgetThrowsOnBothEngines) {
  // The faulty run needs 5 rounds; a budget of 4 is exhausted while node 3
  // is still running.
  const graph::EdgeColouredGraph g = path();
  const FaultPlan plan = hand_plan();
  for (const Engine& engine : engines()) {
    EXPECT_THROW(engine.run(g, chirpers(), {4, {&plan}}), std::runtime_error) << engine.name;
  }
}

}  // namespace
}  // namespace dmm::local
