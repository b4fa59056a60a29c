// Engine checkpoints (ISSUE 8): everything needed to kill a run after any
// completed round and later resume it to a bit-identical RunResult, on
// either engine.
//
// A checkpoint is captured only at round boundaries, which is what makes
// it engine-agnostic and small: the synchronous model has no in-flight
// state between rounds — every message of round r was delivered (or
// dropped) inside round r — so the flat engine's slot planes and spill
// arenas need no serialisation at all.  A restored flat engine starts from
// a fresh zero-stamped plane (every slot reads as absent, exactly like the
// first round of a run), rebuilds its live-node list from the restored
// flags, and serves each halted node's announcement from the static table
// entry of its restored output.  What does need saving is exactly:
//
//   * the completed round counter and the engine's node partition
//     (halted / down / dead / running),
//   * the per-node outputs and halt rounds recorded so far,
//   * the commutatively-merged message stats and fault counters,
//   * the opaque per-node program state of every node that can still act
//     (NodeProgram::save_state; halted and dead nodes are skipped — their
//     fate is already in the outputs),
//   * a fingerprint of the graph, so a checkpoint can never be silently
//     resumed against the wrong instance.
//
// The byte format is the checksummed frame layer of io/serialize.hpp
// (three frames: CKPH header, CKPN node arrays, CKPP program states);
// truncation or corruption anywhere raises io::CorruptFrameError, and a
// graph/shape mismatch raises CheckpointError.  Because the checkpoint is
// engine-agnostic, a sync-engine checkpoint restores into the flat engine
// and vice versa — pinned by tests/test_faults.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::local {

/// A checkpoint that is structurally sound but unusable here: wrong graph,
/// inconsistent shapes, impossible counters.  (Byte-level damage raises
/// io::CorruptFrameError instead.)
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("dmm::local checkpoint error: " + what) {}
};

struct EngineCheckpoint {
  // The graph the checkpoint is pinned to; edge_hash is its
  // EdgeColouredGraph::fingerprint().
  std::int32_t node_count = 0;
  std::int32_t k = 0;
  std::uint64_t edge_hash = 0;

  // Progress: rounds 1..round are complete; `running` nodes can still act
  // (not halted, not dead — a temporarily-down node still counts).
  std::int32_t round = 0;
  std::int32_t running = 0;

  // Fault counters and message accounting (commutative merges, so the
  // restored run's totals equal the uninterrupted run's).
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t max_message_bytes = 0;
  std::uint64_t total_message_bytes = 0;
  std::uint64_t messages_sent = 0;

  // Per-node state (size node_count each).
  std::vector<Colour> outputs;
  std::vector<std::int32_t> halt_round;
  std::vector<std::uint8_t> halted;
  std::vector<std::uint8_t> down;
  std::vector<std::uint8_t> dead;

  // Opaque NodeProgram::save_state blobs, node order, one per node with
  // !halted && !dead.
  std::vector<std::string> program_state;

  /// Serialises as three checksummed frames.
  void write(std::ostream& out) const;

  /// Reads and validates; throws io::CorruptFrameError on byte damage and
  /// CheckpointError on internal inconsistency.
  static EngineCheckpoint read(std::istream& in);

  /// Throws CheckpointError unless the checkpoint was captured on `g` and
  /// means something there: the fingerprint matches, the node arrays have
  /// node_count entries, no node halted after `round`, a node that has not
  /// halted still outputs ⊥, and a halted node outputs ⊥ or one of its
  /// incident colours.  The engines' shared restore (RunState::resume,
  /// run_state.hpp) calls it before overlaying anything.
  void require_matches(const graph::EdgeColouredGraph& g) const;
};

}  // namespace dmm::local
