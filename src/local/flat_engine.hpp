// High-throughput simulation engine over a flat CSR message plane.
//
// run_flat simulates the same synchronous model as run_sync (engine.hpp),
// through the same port-indexed Outbox/Inbox, but backs them with per-edge
// message slots in one contiguous, round-stamped buffer (the stamp
// subsumes the classic send/recv double-buffer swap: last round's slots
// read as absent) instead of run_sync's per-port slots:
//
//   * one 8-byte slot per directed edge, laid out sender-major so the send
//     phase streams sequentially and the plane stays cache-resident even
//     at millions of edges, plus one 8-byte broadcast slot per sender: an
//     inline broadcast (greedy's one status byte) is stored once, not
//     copied into every port slot, and a port's read checks it first;
//   * messages up to kFlatInlineBytes live inline in the slot, the
//     unbounded tail spills to a per-worker side arena (the model allows
//     unbounded messages — flooding programs exercise this path);
//   * inboxes resolve lazily (Inbox::at), so a program that reads one
//     port pays for one gather, not deg(v);
//   * a halted node's announcement ("!" and its output) is served from a
//     static table indexed by its output byte — nothing is rendered or
//     cached per node;
//   * every phase of a round — send, drop accounting, receive, and the
//     once-per-255-rounds stamp wipe — walks a sorted list of the live
//     nodes (neither halted nor dead; down nodes stay listed and are
//     skipped), compacted after each round's halts, so a round costs
//     O(live nodes + ports read) rather than O(n + 2m);
//   * on a fault-free run, a node whose send was one inline broadcast and
//     whose NodeProgram::next_active_round lies at least two rounds past
//     the next sleeps until then (a shorter sleep costs more than it
//     saves): it leaves the live list for a wake bucket indexed by round
//     (a 256-slot timing wheel; a longer sleep is cut to fit it), so greedy
//     costs O(awake nodes) per round — on a hub cluster, a few percent of
//     the live ones.  Its broadcast slot keeps serving its last broadcast,
//     flagged as sleeping so resolve() ignores the stale stamp, and a
//     running sum of the sleepers' degrees and payload bytes adds their
//     messages to each round's accounting, so every RunResult field and
//     every mid-sleep checkpoint match run_sync's.  On waking, the slot is
//     cleared; the tag-cycle wipe reaches sleepers' port rows too.  Builds
//     without NDEBUG, and sanitizer builds, also step every sleeper into
//     scratch and throw std::logic_error when it breaks the contract;
//   * the send and receive phases optionally run on a persistent worker
//     pool (options.threads > 1) owned by a Runtime (runtime.hpp) — a
//     standalone engine's own, private one, or one shared by many
//     sessions: the threads spawn on the first parallel phase, park on a
//     condition-variable barrier between phases, and join when the
//     runtime goes — no per-round thread churn.  Work is pre-split into
//     node-range chunks of roughly equal *slot* (directed-edge) weight,
//     so a run of max-degree hub rows no longer serialises one worker the
//     way the old node-count partition did, and workers that exhaust
//     their own chunk run steal the remainder of the others'
//     (options.steal).  A chunk walks the slice of the live list inside
//     its range; the serial path is the same loop over one chunk spanning
//     every node.  Writes stay per-slot disjoint — a chunk is claimed by
//     exactly one worker per phase — so no locks are taken on the plane
//     itself.
//
// Results are bit-identical to run_sync for every thread count, chunk
// size and steal setting: all racy-looking state (message stats, spill
// arenas, newly-halted batches) is worker-indexed and merged with
// commutative folds.  The bookkeeping around delivery — faults, halts,
// checkpoints — is run_sync's own code (run_state.hpp); only delivery
// differs, and run_sync stays its reference oracle:
// tests/test_flat_engine.cpp checks the two engines produce identical
// RunResult fields (outputs, halt rounds, message accounting) for every
// algorithm in the library, and tests/test_flat_stress.cpp re-checks that
// across a schedule-perturbation grid (threads × chunk_slots × steal).
#pragma once

#include <iosfwd>
#include <span>

#include "local/engine.hpp"
#include "local/run_state.hpp"
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

/// The engine object behind run_flat and flat sessions, exposed so a run
/// can be checkpointed and resumed (checkpoint.hpp): construct once (CSR
/// borrow, chunk planning), then either run() to completion — optionally
/// under a FaultPlan, with a CheckpointOptions sink observing round
/// boundaries — or restore() a previously captured checkpoint and run()
/// the remainder.  Checkpoints are engine-agnostic: a FlatEngine restores
/// what run_sync captured and vice versa (tests/test_faults.cpp).
class FlatEngine final : public Session {
 public:
  /// The constructor borrows the graph's colour-sorted CSR
  /// (EdgeColouredGraph::csr()) and holds it for the engine's lifetime, so
  /// every engine and session over one graph version — and over every copy
  /// of it — shares one CSR.  Only a version's first flat run builds it,
  /// so RunResult::init_ns includes the CSR build on that run alone.
  ///
  /// With `runtime` == nullptr the engine owns a private Runtime sized to
  /// its worker count (options.threads, clamped).  With a runtime, it
  /// borrows that one instead: the worker count comes from
  /// runtime->threads(), and many concurrent sessions multiplex on its one
  /// pool and spill-arena set.  Either way the runtime spawns its pool
  /// lazily, on the first parallel phase, and each round step holds its
  /// borrow lock (runtime.hpp).
  FlatEngine(const graph::EdgeColouredGraph& g, const ProgramSource& source,
             int max_rounds, const FlatEngineOptions& options,
             Runtime* runtime = nullptr);
  ~FlatEngine() override;

  /// Runs to completion under `faults` and `checkpoint` with the
  /// constructor's round budget.  When the engine was primed by restore(),
  /// the run continues at checkpoint.round + 1 and finishes with a
  /// RunResult bit-identical to the uninterrupted run's.  A thin loop over
  /// the Session verbs below.
  RunResult run(const FaultOptions& faults = {}, const CheckpointOptions& checkpoint = {});

  /// Primes a stepped run (make_session calls it): takes the options'
  /// fault plan and checkpoint cadence, restores options.checkpoint.resume
  /// if set, and — unless restore() primed it already — builds programs and
  /// delivers init.  The Session verbs then step it one round at a time.
  void begin(const RunOptions& options);
  void step() override;
  bool done() const noexcept override { return state_.done(); }
  int round() const noexcept override { return state_.round; }
  RunResult result() override;

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

  /// Lazy inbox resolution (Inbox::at): the message delivered into
  /// receiver slot s this round.  A halted sender yields its announcement
  /// from the static table; otherwise the sender's broadcast slot answers
  /// when it is stamped this round, and only then is the sender's port slot
  /// found by a binary search of its (tiny, colour-sorted) row — programs
  /// typically read far fewer ports than there are slots, so no in-slot
  /// table is kept.  Under faults this is also where delivery is masked: a
  /// down sender reads as absent, and a dropped message reads as absent
  /// without the sender's slot ever being touched.
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
  void wipe_live_rows();
  void sleep(graph::NodeIndex v, int wake, int round);
  void wake_for(int round);
  void check_sleepers(int round, std::uint8_t stamp);
  std::span<const graph::NodeIndex> live_in(graph::NodeIndex begin,
                                            graph::NodeIndex end) const noexcept;
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

  ProgramSource source_;  // a shared handle: copied, not borrowed
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
  std::unique_ptr<Runtime> own_runtime_;  // a standalone engine's private runtime
  Runtime* runtime_ = nullptr;            // pool + spill arenas, borrowed per step

  // The graph's sender-major CSR, shared with every other engine on this
  // graph version.
  std::shared_ptr<const graph::Csr> csr_;

  // Declared after the CSR: programs may hold init spans into its
  // colour rows, so the pool (and its destructors) must go first.
  ProgramPool pool_;

  // Per-run state, owned by the engine so snapshot()/restore() can reach
  // it between rounds: the bookkeeping run_sync shares, then what only
  // delivery on the plane needs.
  RunState state_;
  bool primed_ = false;
  bool planes_ready_ = false;
  std::vector<MessageStats> stats_;  // per worker, folded in by result()/snapshot()
  // A node leaving the live list after this round's receive: halted
  // (wake == 0), or asleep until round `wake`.
  struct Departure {
    graph::NodeIndex node;
    int wake;
  };
  std::vector<std::vector<Departure>> departures_;  // per worker
  // The nodes neither halted, dead nor asleep, sorted (down nodes stay in
  // it and are skipped): every phase of a round walks this list instead of
  // 0..n.  Built by a run's first step, then after each round compacted of
  // its halts and sleeps, with the next round's wakers merged in.
  std::vector<graph::NodeIndex> live_;
  std::unique_ptr<FlatPlane> plane_;

  // Sleepers, fault-free runs only.  The wheel is built on the first sleep;
  // bucket `r % size` holds the nodes waking in round r.
  std::vector<std::vector<graph::NodeIndex>> wake_;
  std::size_t asleep_ = 0;
  std::size_t asleep_messages_ = 0;  // sum of the sleepers' degrees
  std::size_t asleep_bytes_ = 0;     // and of degree × broadcast length

  // Delivery masks of the current run (set by begin(), read by resolve()).
  bool faulty_ = false;
  bool drop_mask_ = false;
  int round_now_ = 0;
};

/// True when this build checks the next_active_round contract by stepping
/// every sleeper (builds without NDEBUG, and sanitizer builds).
bool sleep_contract_checked() noexcept;

/// run_sync's flat counterpart: same options, same RunResult.
RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options = {});

/// A round-stepped run on either engine; a flat one optionally multiplexed
/// on a shared Runtime (kSync ignores engine_options and runtime — the
/// reference engine is always serial).  The graph, fault plan and runtime
/// are borrowed and must outlive the session.
std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      const FlatEngineOptions& engine_options = {},
                                      Runtime* runtime = nullptr);

}  // namespace dmm::local
