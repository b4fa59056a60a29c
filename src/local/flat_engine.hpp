// High-throughput simulation engine over a flat CSR message plane.
//
// run_flat simulates the same synchronous model as run_sync (engine.hpp)
// but replaces the per-round std::map inboxes with per-edge message slots
// in one contiguous, round-stamped buffer (the stamp subsumes the classic
// send/recv double-buffer swap: last round's slots read as absent):
//
//   * one 8-byte slot per directed edge, laid out sender-major so the send
//     phase streams sequentially and the plane stays cache-resident even
//     at millions of edges;
//   * messages up to kFlatInlineBytes live inline in the slot, the
//     unbounded tail spills to a per-worker side arena (the model allows
//     unbounded messages — flooding programs exercise this path);
//   * inboxes resolve lazily (FlatInbox::at), so a program that reads one
//     port pays for one gather, not deg(v);
//   * a halted node's announcement is rendered once, when it halts — and
//     only if a still-running neighbour can read it — then served from
//     that cache in every later round;
//   * the send and receive phases optionally run on a persistent worker
//     pool (options.threads > 1) owned by the engine: the threads are
//     spawned once in the constructor, parked on a condition-variable
//     barrier between phases, and joined in the destructor — no per-round
//     thread churn.  Work is pre-split into chunks of roughly equal *slot*
//     (directed-edge) weight, so a run of max-degree hub rows no longer
//     serialises one worker the way the old node-count partition did, and
//     workers that exhaust their own chunk run steal the remainder of the
//     others' (options.steal).  Writes stay per-slot disjoint — a chunk is
//     claimed by exactly one worker per phase — so no locks are taken on
//     the plane itself.
//
// Results are bit-identical to run_sync for every thread count, chunk
// size and steal setting: all racy-looking state (message stats, spill
// arenas, newly-halted batches) is worker-indexed and merged with
// commutative folds.  run_sync stays the reference oracle:
// tests/test_flat_engine.cpp checks the two engines produce identical
// RunResult fields (outputs, halt rounds, message accounting) for every
// algorithm in the library, and tests/test_flat_stress.cpp re-checks that
// across a schedule-perturbation grid (threads × chunk_slots × steal).
#pragma once

#include <iosfwd>

#include "local/engine.hpp"
#include "local/program_pool.hpp"
#include "local/runtime.hpp"

namespace dmm::local {

/// Messages at most this long are stored inline in the slot buffer (slots
/// are 8 bytes, so the whole plane stays cache-resident even at a million
/// edges); longer ones spill to the arena.
inline constexpr std::size_t kFlatInlineBytes = 6;

/// Spill payloads are addressed by a 40-bit byte offset plus an 8-bit
/// worker-arena index packed into the 6 payload bytes of the slot, so a
/// single worker arena may hold up to 1 TiB before the engine refuses —
/// with an explicit length_error, never a silent 32-bit wrap.
inline constexpr std::uint64_t kMaxSpillOffset = (std::uint64_t{1} << 40) - 1;

/// Hard cap on flat-engine workers (the spill arena index is one byte);
/// the shared runtime carries the same cap for the same reason.
inline constexpr int kMaxFlatWorkers = kMaxRuntimeWorkers;

struct FlatEngineOptions {
  /// Workers for the send/receive phases; 1 (the default) runs in-line on
  /// the calling thread.  Values above the node count or kMaxFlatWorkers
  /// are clamped; results are identical for every value.
  int threads = 1;
  /// Target slot (directed-edge) weight per work chunk.  0 (the default)
  /// auto-sizes to roughly 16 chunks per worker, floored so tiny graphs
  /// do not shatter into per-node chunks.  Smaller chunks balance skewed
  /// degree distributions at the price of more atomic claims; results are
  /// identical for every value (tests/test_flat_stress.cpp).
  std::size_t chunk_slots = 0;
  /// When true (the default) a worker that drains its own chunk run keeps
  /// going on the other workers' remaining chunks, so a worker stuck on a
  /// hub-heavy run cannot leave the rest idle.  Results are identical
  /// either way.
  bool steal = true;
};

/// Slot index of `port` within the row starting at `row`; the port is
/// widened before the addition.
constexpr std::size_t flat_slot(std::size_t row, int port) noexcept {
  return row + static_cast<std::size_t>(port);
}

/// The engine object behind run_flat, exposed so a run can be checkpointed
/// and resumed (checkpoint.hpp): construct once (CSR borrow, chunk
/// planning, worker-pool spawn), then either run() to completion —
/// optionally under a FaultPlan, with a CheckpointOptions sink observing
/// round boundaries — or restore() a previously captured checkpoint and
/// run() the remainder.  Checkpoints are engine-agnostic: a FlatEngine
/// restores what run_sync captured and vice versa (tests/test_faults.cpp).
class FlatEngine {
 public:
  /// The constructor borrows the graph's colour-sorted CSR
  /// (EdgeColouredGraph::csr()) and holds it for the engine's lifetime, so
  /// every engine and session over one graph version — and over every copy
  /// of it — shares one CSR.  Only a version's first flat run builds it,
  /// so RunResult::init_ns includes the CSR build on that run alone.
  ///
  /// With `runtime` == nullptr the engine owns a private worker pool
  /// (options.threads workers, spawned in the constructor).  With a
  /// runtime, the engine borrows the process-shared pool and spill arenas
  /// instead: the worker count comes from runtime->threads(), nothing is
  /// spawned here (the runtime spawns its pool lazily, once per process),
  /// and each round step takes the runtime's borrow lock — so many
  /// concurrent sessions multiplex on one pool (runtime.hpp).
  FlatEngine(const graph::EdgeColouredGraph& g, const ProgramSource& source,
             int max_rounds, const FlatEngineOptions& options,
             Runtime* runtime = nullptr);
  ~FlatEngine();

  FlatEngine(const FlatEngine&) = delete;
  FlatEngine& operator=(const FlatEngine&) = delete;

  /// Runs to completion.  When the engine was primed by restore(), the run
  /// continues at checkpoint.round + 1 and finishes with a RunResult
  /// bit-identical to the uninterrupted run's.  Implemented as
  /// begin() + step() to completion + finish() — the stepped API below is
  /// the engine; these are the thin loop.
  RunResult run();
  RunResult run(const FaultOptions& faults, const CheckpointOptions& checkpoint = {});

  // Stepped session API (engine.hpp::Session wraps it via
  // make_flat_session).  begin() primes a run: applies the options'
  // fault plan, restores any checkpoint, builds programs and delivers
  // init.  Each step() then simulates exactly one round (including that
  // round's fault events and checkpoint sink); finish() moves the
  // RunResult out once done().
  void begin(const RunOptions& options);
  void step();
  bool done() const noexcept { return running_ == 0; }
  int round() const noexcept { return round_; }
  RunResult finish();

  /// The engine state after the last completed round, as the same
  /// engine-agnostic checkpoint run_sync captures; checkpoint() writes it
  /// to `out` in the checksummed io/serialize frame format.  Only valid
  /// while a run is in progress (i.e. from a CheckpointOptions sink).
  EngineCheckpoint snapshot() const;
  void checkpoint(std::ostream& out) const;

  /// Primes the engine with a checkpoint captured on the same instance (by
  /// either engine); throws CheckpointError on a fingerprint mismatch and
  /// io::CorruptFrameError on byte damage.  The next run() resumes it.
  void restore(const EngineCheckpoint& cp);
  void restore(std::istream& in);

  /// Lazy inbox resolution (FlatInbox::at): the message delivered into
  /// receiver slot s this round.  The sender's slot is found by a binary
  /// search of its (tiny, colour-sorted) row — programs typically read far
  /// fewer ports than there are slots, so no in-slot table is kept.  Under
  /// faults this is also where delivery is masked: a down sender reads as
  /// absent, and a dropped message reads as absent without the sender's
  /// slot ever being touched.
  std::string_view resolve(const FlatPlane& plane, std::size_t s,
                           std::uint8_t stamp) const noexcept;

 private:
  /// Builds programs and per-run state; `cp` != nullptr overlays a restored
  /// checkpoint (init still runs — programs re-derive graph-shaped state —
  /// then load_state overwrites the dynamic part).
  void initialise(const EngineCheckpoint* cp);
  void step_round(int round);

  std::string_view slot_view(const FlatPlane& plane, std::size_t s,
                             std::uint8_t stamp) const noexcept;
  void halt(graph::NodeIndex v, int round);
  void render_announcement(graph::NodeIndex v);
  void wipe_running_rows();
  void plan_chunks(std::size_t chunk_slots);
  template <class F>
  void for_chunks(const F& fn);
  template <class F>
  void drain(int victim, int worker, const F& fn);

  struct Chunk {
    graph::NodeIndex begin;
    graph::NodeIndex end;
  };
  struct ChunkCursor;  // cache-line-isolated atomic claim cursor (flat_engine.cpp)

  const graph::EdgeColouredGraph& g_;
  const ProgramSource& source_;
  int max_rounds_;
  int n_ = 0;
  int workers_ = 1;
  bool steal_ = true;
  double build_ns_ = 0.0;

  // Chunk plan (workers_ > 1 only): contiguous node ranges of roughly
  // equal slot weight, split into one contiguous run per worker.
  std::vector<Chunk> chunks_;
  std::vector<std::int64_t> run_begin_;
  std::vector<std::int64_t> run_end_;
  std::unique_ptr<ChunkCursor[]> cursors_;
  std::unique_ptr<WorkerPool> pool_threads_;  // private pool (no runtime): workers_ - 1 parked threads
  Runtime* runtime_ = nullptr;                // shared pool + arenas, borrowed per step

  // The graph's sender-major CSR, shared with every other engine on this
  // graph version.
  std::shared_ptr<const graph::Csr> csr_;

  // Declared after the CSR: programs may hold init_flat spans into its
  // colour rows, so the pool (and its destructors) must go first.
  ProgramPool pool_;

  // Per-run state, owned by the engine so snapshot()/restore() can reach
  // it between rounds.
  RunResult result_;
  int running_ = 0;
  int round_ = 0;  // last completed round
  bool primed_ = false;
  bool planes_ready_ = false;
  std::vector<MessageStats> stats_;  // per worker, merged by finalise/snapshot
  std::vector<std::vector<graph::NodeIndex>> newly_halted_;  // per worker
  std::vector<char> halted_;
  std::vector<char> down_;  // includes dead nodes (a dead node stays down)
  std::vector<char> dead_;
  std::vector<std::string> announcements_;
  std::unique_ptr<FlatPlane> plane_;

  // Fault context of the current run (set by begin(), read by resolve()).
  const FaultPlan* plan_ = nullptr;
  bool faulty_ = false;
  bool drop_mask_ = false;
  int round_now_ = 0;
  std::size_t ev_ = 0;  // fault-event cursor

  // Checkpoint sink of the current run (set by begin(), fired by step()).
  int every_ = 0;
  std::function<void(const EngineCheckpoint&)> sink_;
};

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds, const FlatEngineOptions& options = {});

/// As above, with fault injection and checkpointing.
RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds, const FlatEngineOptions& options,
                   const FaultOptions& faults, const CheckpointOptions& checkpoint = {});

/// The primary form: the overloads above forward here.
RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options = {},
                   Runtime* runtime = nullptr);

/// A round-stepped flat run, optionally multiplexed on a shared Runtime.
/// The graph, source, fault plan and runtime are borrowed and must outlive
/// the session.
std::unique_ptr<Session> make_flat_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options,
                                           const FlatEngineOptions& engine_options = {},
                                           Runtime* runtime = nullptr);

/// Engine-dispatching session factory (kSync ignores engine_options and
/// runtime — the reference engine is always serial).
std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      const FlatEngineOptions& engine_options = {},
                                      Runtime* runtime = nullptr);

}  // namespace dmm::local
