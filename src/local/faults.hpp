// Deterministic fault injection for the LOCAL engines (ISSUE 8).
//
// A FaultPlan is a seeded, schedule-independent description of what goes
// wrong during a run: per-round node crashes (with a restart round, or
// permanent), and per-message drops.  Both engines consume the same plan
// through FaultOptions and are required to produce bit-identical
// RunResults — the plan is pure data, so the engine-equivalence discipline
// of PRs 2–7 extends unchanged to faulty runs (tests/test_faults.cpp).
//
// Semantics (docs/faults.md):
//   * a node that is *down* sends nothing, receives nothing and cannot
//     halt; its neighbours read absent messages on the shared edges;
//   * a *restart* resumes the node from its frozen pre-crash program state
//     (the deterministic equivalent of replaying its kept transcript: the
//     state is a pure function of the rounds it actually observed);
//   * a *permanent* crash removes the node from the run — output ⊥,
//     halt_round −1 — and is what the fault counters gauge;
//   * a crash aimed at an already-halted node is a no-op (its announced
//     output is part of the environment, not of the protocol);
//   * message drops are a pure hash of (round, sender, colour) against the
//     drop probability — no RNG state advances, so whether a given message
//     is dropped is independent of thread count, chunk size and read
//     order.  (A properly edge-coloured graph has at most one edge per
//     colour at each node, so the triple names one directed edge.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_coloured_graph.hpp"

namespace dmm::local {

/// One node transition, applied at the *start* of `round` (before the
/// round's send phase): up == false takes the node down (permanently when
/// `permanent`), up == true brings it back.
struct FaultEvent {
  int round = 0;
  graph::NodeIndex node = 0;
  bool up = false;
  bool permanent = false;
};

/// Knobs for FaultPlan::random; parse_fault_spec reads the CLI grammar
/// "crash=0.02,down=2-5,perm=0.1,drop=0.01,horizon=16,seed=7".
struct FaultSpec {
  double crash_prob = 0.0;      // per-node chance of one crash
  int horizon = 8;              // last round at which a crash may start
  int min_down = 1;             // crash duration range (rounds)
  int max_down = 2;
  double permanent_prob = 0.0;  // chance a crash never restarts
  double drop_prob = 0.0;       // per-(round, sender, colour) drop chance
  std::uint64_t seed = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Crashes `node` at the start of `round`, down for `down_rounds` rounds
  /// (it restarts at round + down_rounds); down_rounds <= 0 means the
  /// crash is permanent.  Rounds start at 1; throws std::invalid_argument
  /// for round < 1 or a restart round past INT_MAX.
  void add_crash(graph::NodeIndex node, int round, int down_rounds);

  /// Every (round, sender, colour) message is dropped independently with
  /// probability `drop_prob`, decided by hashing the triple against
  /// `seed` — stateless, so the decision is identical on every engine and
  /// schedule.
  void set_drops(double drop_prob, std::uint64_t seed);

  /// Seeded random plan over the nodes of `g` per `spec`.
  static FaultPlan random(const graph::EdgeColouredGraph& g, const FaultSpec& spec);

  bool empty() const noexcept { return events_.empty() && !has_drops_; }
  bool has_crashes() const noexcept { return !events_.empty(); }
  bool has_drops() const noexcept { return has_drops_; }

  /// Sorted by (round, node), restarts before crashes on ties.
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Index of the first event with event.round >= round: where a round's
  /// events start (the engines apply round r's events from
  /// first_event_at(r), so a resumed run skips everything up to its
  /// checkpoint).
  std::size_t first_event_at(int round) const noexcept;

  /// True iff the round-`round` message from `sender` along `colour` is
  /// dropped.  Pure function of the arguments and the drop seed.
  bool drops(int round, graph::NodeIndex sender, gk::Colour colour) const noexcept;

  /// Largest restart round in the plan (0 when none): faulty runs need
  /// max_rounds headroom past it, since a restarted node still has to
  /// finish its protocol.
  int max_restart_round() const noexcept;

  /// The default round budget of a greedy run under this plan on a graph
  /// of `k` colours: k + 1, or k + 2 rounds past the last restart round,
  /// whichever is larger.
  int default_max_rounds(int k) const noexcept;

  /// Throws std::invalid_argument when any event targets a node outside
  /// [0, node_count).  The engines call this before round 1, so a
  /// mistargeted plan is rejected even when the run halts before the
  /// event's round would have applied it.
  void require_fits(graph::NodeIndex node_count) const;

 private:
  std::vector<FaultEvent> events_;
  double drop_prob_ = 0.0;
  std::uint64_t drop_threshold_ = 0;
  std::uint64_t drop_seed_ = 0;
  bool has_drops_ = false;
};

/// Parses the CLI fault grammar (see FaultSpec).  Throws
/// std::invalid_argument on an unknown key or a malformed value: one not
/// consumed whole ("0.5abc", "horizon=3.7"), a probability outside [0, 1]
/// or NaN, or a signed seed.
FaultSpec parse_fault_spec(const std::string& text);

}  // namespace dmm::local
