// Run-state bookkeeping shared by the two engines (engine.hpp).
//
// run_sync and the flat engine deliver messages in entirely different
// ways — per-port slots resolved for every port of every running node,
// against a flat slot plane resolved lazily — and must still agree on
// every RunResult field.  Everything around delivery is the same on both,
// so it lives here once:
//
//   * the RunOptions setup: an empty fault plan reads as none, a plan must
//     fit the graph, and the round budget and checkpoint cadence are kept;
//   * the per-node flags (halted / down / dead), outputs and halt rounds,
//     and the running count;
//   * phase 0 of a round: applying that round's fault events;
//   * halt recording;
//   * checkpoints: the overlay and load_state loop of a restore, and the
//     capture at a round boundary, fired on the sink's cadence;
//   * the final fold of halt rounds into RunResult::rounds.
//
// No message passes through this class.  Each engine keeps its own send
// and receive phases, drop check and message accounting, so run_sync stays
// an independent oracle for delivery; tests/test_run_state.cpp pins the
// shared part to hand-computed values on both engines.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "local/engine.hpp"

namespace dmm::local {

/// One run's bookkeeping.  The fields are public because both engines'
/// hot loops read the flags directly, as plain vector indexing; they are
/// written only through the methods below, except what each engine keeps
/// in `result` itself: message and drop accounting, timings and the
/// thread gauge.
struct RunState {
  RunState(const graph::EdgeColouredGraph& g, EngineKind engine) : g(g), engine(engine) {}

  /// Takes a run's options: an empty plan reads as none, a plan that
  /// targets a node outside the graph throws std::invalid_argument, and the
  /// round budget and checkpoint cadence are kept for the steps.  Leaves
  /// the per-node state alone, so it may follow a restore.
  void configure(const RunOptions& options);

  /// Starts a fresh run: every node running, outputs ⊥, halt rounds −1,
  /// every counter zero.
  void reset();

  /// Overlays a checkpoint after init ran on every node: throws
  /// CheckpointError unless `cp` was captured on this graph, then restores
  /// the flags, counters and recorded outputs, and hands each node that can
  /// still act its saved program state (NodeProgram::load_state).
  void resume(const EngineCheckpoint& cp, ProgramPool& pool);

  /// Opens the next round: throws std::runtime_error once it would exceed
  /// the round budget, then applies the round's fault events (phase 0).
  /// Returns the round.
  int begin_round();

  /// Records that `v` halted after `at_round` with its program's output.
  void halt(graph::NodeIndex v, int at_round, const ProgramPool& pool) {
    const auto i = static_cast<std::size_t>(v);
    halted[i] = 1;
    result.halt_round[i] = at_round;
    result.outputs[i] = pool[i]->output();
    --running;
  }

  /// Closes `at_round` — the only point a checkpoint can be captured
  /// (checkpoint.hpp explains why round boundaries suffice) — and hands the
  /// sink a capture when the cadence says so.  `pending` is message
  /// accounting the engine has not folded into `result` yet.
  void end_round(int at_round, const ProgramPool& pool, std::span<const MessageStats> pending);

  /// The state after the last completed round, as an engine-agnostic
  /// checkpoint; `pending` as for end_round.
  EngineCheckpoint capture(const ProgramPool& pool, std::span<const MessageStats> pending) const;

  /// Folds `pending` and the halt rounds into the result and moves it out.
  RunResult finish(std::span<const MessageStats> pending);

  bool done() const noexcept { return running == 0; }

  const graph::EdgeColouredGraph& g;
  EngineKind engine;

  // Options of the current run (configure).
  const FaultPlan* plan = nullptr;  // null on a fault-free run
  int max_rounds = 0;
  int every = 0;
  std::function<void(const EngineCheckpoint&)> sink;

  // Per-run state (reset / resume).
  RunResult result;
  std::vector<char> halted;
  std::vector<char> down;  // includes dead nodes (a dead node stays down)
  std::vector<char> dead;
  int running = 0;  // nodes neither halted nor dead
  int round = 0;    // last completed round

 private:
  MessageStats totals(std::span<const MessageStats> pending) const;
};

}  // namespace dmm::local
