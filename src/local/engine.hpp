// Synchronous message-passing engine for anonymous networks (§1.2).
//
// In every round each node, in parallel, (1) sends a message to each
// neighbour, (2) receives the neighbours' messages, and (3) updates its
// state.  After any round — including "round 0", before any communication —
// a node may halt and announce its local output.  Per the paper, an
// announced output is visible to neighbours; the engine models this by
// continuing to deliver a halted node's final announcement.
//
// The engine measures the running time as the maximum halting round over
// all nodes, which matches the paper's definition (greedy halts everyone by
// round k-1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::local {

/// Messages are opaque byte strings; the model allows unbounded messages.
using Message = std::string;

struct FlatPlane;  // flat_engine.cpp
class FlatEngine;
class FaultPlan;          // faults.hpp
struct EngineCheckpoint;  // checkpoint.hpp
class Runtime;            // runtime.hpp

/// Running totals for the paper's message-size accounting; shared between
/// the engines and the flat-plane writers.  Cache-line aligned: the flat
/// engine keeps one per worker in a vector, and every send updates it —
/// unpadded, adjacent workers would false-share a line on each message.
struct alignas(64) MessageStats {
  std::size_t max_bytes = 0;
  std::size_t total_bytes = 0;
  std::size_t sent = 0;
};

/// Write side of the flat message plane: one slot per incident colour
/// ("port"), ports sorted by colour exactly like the std::map inbox.  A
/// message may be set at most once per port per round.
class FlatOutbox {
 public:
  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }

  /// Stores `bytes` in the slot of the given port (index into the node's
  /// sorted incident-colour list).
  void set(int port, std::string_view bytes);

  /// Routes by colour; a non-incident colour is counted in the message
  /// accounting (matching run_sync, which counts everything a program
  /// returns) but never delivered.
  void set_colour(Colour c, std::string_view bytes);

  /// Same bytes on every port.
  void broadcast(std::string_view bytes);

 private:
  friend class FlatEngine;
  FlatPlane* plane_ = nullptr;
  std::size_t base_ = 0;             // first slot of the node's own row
  const Colour* colours_ = nullptr;  // sorted incident colours
  int count_ = 0;
  std::uint8_t arena_ = 0;         // spill arena of the writing worker (≤ 256 workers)
  std::uint32_t stamp_ = 0;        // current round: stamps written slots live
  MessageStats* stats_ = nullptr;
};

/// Read side of the flat message plane.  Ports resolve lazily: a program
/// that only cares about one colour (greedy reads just the colour-(t+1)
/// port) pays for one slot gather, not deg(v).  at() yields a contiguous
/// byte view — empty when the neighbour sent nothing, the halted
/// neighbour's cached announcement (prefixed with kHaltedPrefix) once it
/// has stopped.
class FlatInbox {
 public:
  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }
  std::string_view at(int port) const;  // flat_engine.cpp

 private:
  friend class FlatEngine;
  const FlatEngine* engine_ = nullptr;
  const FlatPlane* plane_ = nullptr;
  const Colour* colours_ = nullptr;
  std::size_t row_ = 0;  // first slot of the receiving node's row
  int count_ = 0;
  std::uint8_t stamp_ = 0;
};

/// Per-node state machine.  Implementations must be anonymous: the only
/// instance information ever provided is the list of incident edge colours
/// and the received messages (keyed by incident colour, which is how an
/// anonymous node tells its ports apart in an edge-coloured graph).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 1 with the node's initial knowledge.  May
  /// halt immediately (return true) — that is a running time of 0.
  virtual bool init(const std::vector<Colour>& incident) = 0;

  /// Flat-engine init fast path: `incident` points directly at the
  /// graph's sorted CSR colour row (`degree` entries), which the engine
  /// keeps alive for the whole run.  The default copies into a vector and bridges to
  /// init(); allocation-free programs (greedy) override this and keep the
  /// span, which is what makes pooled init at n = 10⁷ cheap.
  virtual bool init_flat(const Colour* incident, int degree);

  /// Produces this round's outgoing message per incident colour.  Only
  /// called while the node is running.
  virtual std::map<Colour, Message> send(int round) = 0;

  /// Delivers this round's incoming messages (one per incident colour; for
  /// a halted neighbour this is its final announcement, prefixed by the
  /// engine with kHaltedPrefix).  Returns true to halt after this round.
  virtual bool receive(int round, const std::map<Colour, Message>& inbox) = 0;

  /// The local output; valid once halted.
  virtual Colour output() const = 0;

  // Flat-plane fast path (optional).  The defaults bridge to the map-based
  // send/receive above, so every program runs unchanged — and bit-for-bit
  // identically — on the flat engine.  Hot programs override these to skip
  // the per-round std::map churn; the engine-equivalence suite
  // (tests/test_flat_engine.cpp) pins the two paths together.
  virtual void send_flat(int round, FlatOutbox& out);
  virtual bool receive_flat(int round, const FlatInbox& in);

  // Checkpoint hooks (optional; checkpoint.hpp).  save_state serialises
  // everything the program's future behaviour depends on *beyond* what
  // init re-derives from the graph; load_state restores it after init ran
  // on a resumed engine.  The defaults throw std::logic_error, so
  // checkpointing a program that has not implemented them fails loudly
  // instead of resuming with silently reset state (greedy and flooding
  // implement both).
  virtual void save_state(std::string& out) const;
  virtual void load_state(std::string_view in);
};

inline constexpr char kHaltedPrefix = '!';

/// Legacy per-node factory: one heap allocation per node.  Still accepted
/// everywhere (tests build throwaway programs this way), but the pooled
/// ProgramFactory path below is what the engines are tuned for.
using NodeProgramFactory = std::function<std::unique_ptr<NodeProgram>()>;

class ProgramPool;  // program_pool.hpp: arena-backed type-erased storage

/// Batched program construction: the engines hand the factory the whole
/// node range at once and it constructs every program in place inside the
/// pool's slab arena.  The per-node default bridges to make_one, so a
/// factory only has to implement the batch path when it is hot (greedy and
/// flooding override make_programs; see algo/greedy.hpp).
class ProgramFactory {
 public:
  virtual ~ProgramFactory() = default;

  /// Appends programs for `count` nodes to the pool, in node order.  The
  /// default performs `count` make_one calls.
  virtual void make_programs(std::size_t count, ProgramPool& pool) const;

  /// Constructs a single program into the pool.
  virtual NodeProgram* make_one(ProgramPool& pool) const = 0;
};

/// What the engines actually accept: either a pooled ProgramFactory or any
/// legacy callable returning std::unique_ptr<NodeProgram>.  Both engine
/// paths must produce bit-identical RunResults — pinned by
/// tests/test_program_pool.cpp.
class ProgramSource {
 public:
  ProgramSource() = default;

  template <class F,
            std::enable_if_t<std::is_invocable_r_v<std::unique_ptr<NodeProgram>, F&>, int> = 0>
  ProgramSource(F factory) : legacy_(std::move(factory)) {}  // NOLINT(google-explicit-constructor)

  ProgramSource(std::shared_ptr<const ProgramFactory> factory)  // NOLINT(google-explicit-constructor)
      : factory_(std::move(factory)) {}

  /// Fills `pool` with programs for `count` nodes (program_pool.cpp).
  /// Throws std::logic_error when the source is empty.
  void build(std::size_t count, ProgramPool& pool) const;

  /// True when programs construct in the pool's arena (no per-node heap).
  bool pooled() const noexcept { return factory_ != nullptr; }

 private:
  NodeProgramFactory legacy_;
  std::shared_ptr<const ProgramFactory> factory_;
};

struct RunResult {
  std::vector<Colour> outputs;    // per node; kUnmatched = ⊥
  std::vector<int> halt_round;    // per node
  int rounds = 0;                 // max halting round = running time
  // Message accounting — the paper notes (after Theorem 2) that the lower
  // bound allows unbounded messages while greedy needs only constant-size
  // ones; the engine measures that claim.
  std::size_t max_message_bytes = 0;
  std::size_t total_message_bytes = 0;
  std::size_t messages_sent = 0;
  // Fault accounting (faults.hpp): crash events applied, restarts applied,
  // and messages dropped in flight.  All zero on fault-free runs.  Part of
  // engine equivalence — both engines must agree on every faulty run.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t messages_dropped = 0;
  // Wall-clock of the setup phase (program construction + init calls —
  // and, on the flat engine, the CSR build on a graph version's first flat
  // run, chunk planning and the worker-pool spawn, which all happen in the
  // engine constructor), the
  // part the pooled allocator exists to shrink; surfaced as `init_ms` in
  // the BENCH_*.json schema.  Not part of engine equivalence.
  double init_ns = 0.0;
  // Wall-clock of the send and receive phases summed over every round
  // (fault phase 0 and checkpoint sinks excluded), surfaced as
  // `send_ms`/`receive_ms` in the BENCH_*.json schema so the per-phase
  // bench gate can tell a regressed send path from a regressed gather.
  // Not part of engine equivalence.
  double send_ns = 0.0;
  double receive_ns = 0.0;
  // Worker threads created over the whole run.  A standalone flat engine
  // spawns its persistent pool (threads − 1 workers beyond the caller)
  // exactly once in the constructor and parks it between phases, so this
  // stays constant in the round count — the old engine spawned/joined a
  // fresh set every phase of every round.  A runtime-backed engine
  // (runtime.hpp) reports only the threads the shared pool spawned on ITS
  // behalf: the one session that triggered the lazy spawn reports
  // threads − 1, every other session 0 — so the sum over N sessions stays
  // threads − 1 (one pool per process).  0 on every serial path
  // (run_sync, threads = 1).  Not part of engine equivalence.
  std::size_t threads_spawned = 0;
};

/// Fault injection for a run: a borrowed FaultPlan (faults.hpp).  The plan
/// must outlive the run; nullptr or an empty plan means a fault-free run.
struct FaultOptions {
  const FaultPlan* plan = nullptr;
};

/// Checkpointing for a run (checkpoint.hpp).  When `every` > 0 and `sink`
/// is set, the engine hands a full EngineCheckpoint to `sink` after every
/// `every`-th completed round (while any node is still running).  `resume`
/// restores a previously captured checkpoint before the first round; the
/// run then continues at checkpoint.round + 1 and — given the same graph,
/// program and fault plan — finishes with a RunResult bit-identical to the
/// uninterrupted run's (tests/test_faults.cpp).
struct CheckpointOptions {
  int every = 0;
  std::function<void(const EngineCheckpoint&)> sink;
  const EngineCheckpoint* resume = nullptr;
};

/// Everything a run is parameterised by, in one struct.  The historical
/// (max_rounds, faults, checkpoint) overload pairs forward here; new code
/// (and the Session API below) takes RunOptions directly.
struct RunOptions {
  /// Throw after this many rounds without global halt (a distributed
  /// algorithm that does not halt is a bug).  Must be positive.
  int max_rounds = 0;
  FaultOptions faults;
  CheckpointOptions checkpoint;
};

/// A round-stepped engine run.  A session is created primed (programs
/// built, init delivered, any checkpoint resumed); each step() simulates
/// exactly one synchronous round — send, receive, update, plus that
/// round's fault events and checkpoint sink.  When done(), result() moves
/// the finished RunResult out (call it once).
///
/// The run-to-completion entry points (run_sync / run_flat / run) are thin
/// loops over a session, so a stepped run is bit-identical to a closed
/// one — which is what lets a scheduler interleave steps of many sessions
/// in any order and still hand every caller the standalone result
/// (svc/service.hpp builds exactly that; tests/test_service.cpp pins it).
class Session {
 public:
  virtual ~Session() = default;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Simulates one round.  Throws (like the closed loops) when the round
  /// would exceed max_rounds, and propagates program exceptions.  Must not
  /// be called once done().
  virtual void step() = 0;

  /// True once every node has halted (or died permanently).
  virtual bool done() const noexcept = 0;

  /// The last completed round (0 before the first step).
  virtual int round() const noexcept = 0;

  /// Moves the finished RunResult out; valid once done(), once.
  virtual RunResult result() = 0;

 protected:
  Session() = default;
};

/// A round-stepped run_sync (the reference oracle, stepwise).
std::unique_ptr<Session> make_sync_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options);

/// Runs one copy of the program on every node until all have halted or
/// max_rounds is exceeded (which throws — a distributed algorithm that does
/// not halt is a bug).
RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds);

/// As above, with fault injection and checkpointing.
RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds, const FaultOptions& faults,
                   const CheckpointOptions& checkpoint = {});

/// The primary form: both historical overloads forward here.
RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options);

/// The library's simulation engines.  kSync is the reference oracle
/// (per-round std::map inboxes, engine.cpp); kFlat is the high-throughput
/// CSR message plane (flat_engine.cpp).  The two are required to agree on
/// every RunResult field for every program.
enum class EngineKind {
  kSync,
  kFlat,
};

/// Dispatches to run_sync or run_flat (with default options).
RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, int max_rounds);

/// As above, with fault injection and checkpointing.
RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, int max_rounds, const FaultOptions& faults,
              const CheckpointOptions& checkpoint = {});

/// The primary form: both historical overloads forward here.
RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options);

/// "sync" / "flat".
const char* engine_kind_name(EngineKind kind) noexcept;

/// Inverse of engine_kind_name; nullopt for anything else.
std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept;

}  // namespace dmm::local
