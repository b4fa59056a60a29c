// The synchronous message-passing engine: halting, rounds, announcements
// (the last on both engines, across a flat-engine checkpoint too).
#include "local/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/checkpoint.hpp"
#include "local/flat_engine.hpp"

namespace dmm::local {
namespace {

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

/// One node of an announcement pair, sending nothing.  The speaker halts
/// with a chosen output after `halt_round` rounds (0 = in init).  The
/// listener keeps listening until a neighbour's halted-announcement
/// arrives, then copies it to `heard` and halts with ⊥.  Nothing to
/// checkpoint: the speaker's state is fixed, and until the listener halts
/// it has heard nothing.
class AnnouncementNode final : public NodeProgram {
 public:
  AnnouncementNode(Colour output, int halt_round) : output_(output), halt_round_(halt_round) {}
  explicit AnnouncementNode(std::shared_ptr<std::string> heard) : heard_(std::move(heard)) {}
  bool init(std::span<const Colour>) override { return !heard_ && halt_round_ == 0; }
  void send(int, Outbox&) override {}
  bool receive(int round, const Inbox& in) override {
    if (!heard_) return round >= halt_round_;
    for (int port = 0; port < in.ports(); ++port) {
      const std::string_view message = in.at(port);
      if (!message.empty() && message.front() == kHaltedPrefix) {
        *heard_ = message;
        return true;
      }
    }
    return false;
  }
  Colour output() const override { return output_; }
  void save_state(std::string&) const override {}
  void load_state(std::string_view) override {}

 private:
  std::shared_ptr<std::string> heard_;  // null for the speaker
  Colour output_ = kUnmatched;
  int halt_round_ = 0;
};

TEST(Engine, ZeroRoundAlgorithmHaltsAtRoundZero) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const RunResult r = run_sync(g, [] { return HaltAtInit(); }, {10});
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.outputs[0], 1);
  EXPECT_EQ(r.outputs[1], 1);
  EXPECT_EQ(r.outputs[2], 2);
  for (int h : r.halt_round) EXPECT_EQ(h, 0);
}

TEST(Engine, RunningTimeIsMaxHaltRound) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  const RunResult r = run_sync(g, [] { return HaltAfter(3); }, {10});
  EXPECT_EQ(r.rounds, 3);
}

TEST(Engine, MixedHaltRoundsReported) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  int counter = 0;
  const RunResult r = run_sync(g, [&] { return HaltAfter(counter++); }, {10});
  EXPECT_EQ(r.halt_round[0], 0);
  EXPECT_EQ(r.halt_round[1], 1);
  EXPECT_EQ(r.halt_round[2], 2);
  EXPECT_EQ(r.rounds, 2);
}

TEST(Engine, ThrowsIfAlgorithmNeverHalts) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2});
  EXPECT_THROW(run_sync(g, [] { return HaltAfter(100); }, {5}), std::runtime_error);
}

TEST(Engine, IsolatedNodesHaltImmediately) {
  const graph::EdgeColouredGraph g(4, 2);  // no edges
  const RunResult r = run_sync(g, [] { return HaltAfter(0); }, {10});
  EXPECT_EQ(r.rounds, 0);
}

/// Misbehaving program: sends messages for colours it does not have, and
/// records how many ports it received on and what arrived on them.
class RogueSender final : public NodeProgram {
 public:
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox& out) override {
    for (Colour c = 1; c <= 9; ++c) out.set_colour(c, "spam");  // mostly non-incident
  }
  bool receive(int, const Inbox& in) override {
    received_ports.push_back(in.ports());
    for (int port = 0; port < in.ports(); ++port) received.emplace_back(in.at(port));
    return true;
  }
  Colour output() const override { return kUnmatched; }
  static std::vector<int> received_ports;
  static std::vector<std::string> received;
};
std::vector<int> RogueSender::received_ports;
std::vector<std::string> RogueSender::received;

TEST(Engine, FailureInjectionRogueSendsAreIgnored) {
  // A program writing to non-incident colours cannot corrupt anyone: the
  // engine only ever routes messages along real edges.  Every set_colour
  // call is still a message sent — 2 nodes × 9 colours of 4 bytes — on
  // both engines alike.
  graph::EdgeColouredGraph g(2, 9);
  g.add_edge(0, 1, 3);
  for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    RogueSender::received_ports.clear();
    RogueSender::received.clear();
    const RunResult r = run(kind, g, [] { return RogueSender(); }, {10});
    SCOPED_TRACE(engine_kind_name(kind));
    EXPECT_EQ(r.rounds, 1);
    EXPECT_EQ(r.messages_sent, 18u);
    EXPECT_EQ(r.total_message_bytes, 72u);
    EXPECT_EQ(r.max_message_bytes, 4u);
    // Each node received exactly one message (its single incident colour).
    EXPECT_EQ(RogueSender::received_ports, (std::vector<int>{1, 1}));
    EXPECT_EQ(RogueSender::received, (std::vector<std::string>{"spam", "spam"}));
  }
}

/// Misbehaving program: throws during a round.
class Thrower final : public NodeProgram {
 public:
  bool init(std::span<const Colour>) override { return false; }
  void send(int, Outbox&) override { throw std::runtime_error("node crashed"); }
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }
};

TEST(Engine, FailureInjectionExceptionsPropagate) {
  // The engine is deterministic and fail-fast: a crashing node surfaces as
  // an exception rather than a silently wrong result.
  graph::EdgeColouredGraph g(2, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(run_sync(g, [] { return Thrower(); }, {10}), std::runtime_error);
}

TEST(Engine, MessageAccounting) {
  // Greedy uses constant-size messages (the remark after Theorem 2): one
  // byte of status per edge per round.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(8).long_path;
  const RunResult r = run_sync(g, [] { return HaltAfter(2); }, {10});
  EXPECT_EQ(r.max_message_bytes, 0u);  // HaltAfter sends empty messages
  EXPECT_EQ(r.total_message_bytes, 0u);
}

/// A two-node instance whose edge colour is `output` (colour 1 for ⊥), so
/// the halting node's output is always one a checkpoint accepts.
graph::EdgeColouredGraph announcement_edge(Colour output) {
  graph::EdgeColouredGraph g(2, 255);
  g.add_edge(0, 1, output == kUnmatched ? Colour{1} : output);
  return g;
}

/// Node 0 halts with `output` at `halt_round`; node 1 listens.
ProgramSource announcement_pair(Colour output, int halt_round,
                                const std::shared_ptr<std::string>& heard) {
  return [output, halt_round, heard, node = 0]() mutable {
    return node++ % 2 == 0 ? AnnouncementNode(output, halt_round) : AnnouncementNode(heard);
  };
}

TEST(Engine, HaltedAnnouncementVisibleToNeighbours) {
  // A halted node announces kHaltedPrefix and its output in decimal, for
  // every output byte and on both engines (the flat engine serves it from
  // a static table; run_sync renders it with std::to_string).  The listener
  // hears it in the round after the halt: never in the halting round.
  for (int value = 0; value < 256; ++value) {
    const auto output = static_cast<Colour>(value);
    const std::string expected = std::string(1, kHaltedPrefix) + std::to_string(value);
    const graph::EdgeColouredGraph g = announcement_edge(output);
    for (const int halt_round : {0, 3}) {
      RunResult results[2];
      for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
        const std::string context = std::string(engine_kind_name(kind)) + " output " +
                                    std::to_string(value) + " halt round " +
                                    std::to_string(halt_round);
        const auto heard = std::make_shared<std::string>();
        const RunResult r = run(kind, g, announcement_pair(output, halt_round, heard), {10});
        EXPECT_EQ(*heard, expected) << context;
        EXPECT_EQ(r.outputs[0], output) << context;
        EXPECT_EQ(r.halt_round[0], halt_round) << context;
        EXPECT_EQ(r.halt_round[1], halt_round + 1) << context;
        results[kind == EngineKind::kFlat ? 1 : 0] = r;
      }
      expect_same_result(results[0], results[1], "output " + std::to_string(value));
    }

    // Across a checkpoint: capture after round 2 (node 0 halted at round
    // 2, its announcement not yet heard), restore into a fresh flat
    // engine, and the resumed run must deliver the same announcement.
    const auto captured = std::make_shared<std::string>();
    std::stringstream bytes;
    CheckpointOptions every_round;
    every_round.every = 1;
    every_round.sink = [&](const EngineCheckpoint& cp) {
      if (cp.round == 2) cp.write(bytes);
    };
    const RunResult whole =
        run_flat(g, announcement_pair(output, 2, captured), {10, FaultOptions{}, every_round});
    const auto heard = std::make_shared<std::string>();
    const ProgramSource resumed = announcement_pair(output, 2, heard);
    FlatEngine engine(g, resumed, 10, {});
    engine.restore(bytes);
    expect_same_result(whole, engine.run(), "restored output " + std::to_string(value));
    EXPECT_EQ(*heard, expected) << "restored output " << value;
  }
}

}  // namespace
}  // namespace dmm::local
