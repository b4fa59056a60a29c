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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::local {

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

/// A port's message in storage off the flat plane (run_sync's, and
/// pn::ColouredAdapter's): `len` bytes at `offset` of the owner's byte
/// buffer for the round, live only while `round` is the current round.
struct PortSlot {
  std::size_t offset = 0;
  std::uint32_t len = 0;
  std::int32_t round = 0;  // 0 = never written; rounds count from 1
};

/// Write side of a round: one slot per incident colour ("port"), ports
/// sorted by colour.  Each port takes at most one message per round — one
/// set() on it, or one broadcast() for every port; a second write throws
/// std::logic_error on every engine.  The flat engine backs it with its
/// slot plane (flat_engine.hpp); run_sync and the PN adapter back it with
/// PortSlots over a per-round byte buffer.  The two backings are one
/// branch apart, never a virtual call.
class Outbox {
 public:
  /// An outbox over caller-owned storage: `slots` holds one PortSlot per
  /// entry of `colours`, and this round's payloads are appended to
  /// `bytes` (slots address it by offset, so it may grow).  Messages are
  /// counted into `stats`.
  Outbox(std::span<const Colour> colours, PortSlot* slots, std::string& bytes, int round,
         MessageStats& stats) noexcept
      : colours_(colours.data()),
        count_(static_cast<int>(colours.size())),
        stats_(&stats),
        slots_(slots),
        bytes_(&bytes),
        round_(round) {}

  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }

  /// Stores `bytes` in the slot of the given port (index into the node's
  /// sorted incident-colour list).  Throws std::out_of_range for a port
  /// outside [0, ports()) and std::logic_error when the port was already
  /// set, or the node already broadcast, this round.
  void set(int port, std::string_view bytes);

  /// Routes by colour; a non-incident colour is counted in the message
  /// accounting but never delivered.
  void set_colour(Colour c, std::string_view bytes);

  /// Same bytes on every port, counted as one message per port.  On the
  /// flat plane a payload of at most kFlatInlineBytes is written once, into
  /// the node's broadcast slot; anything else is one set() per port.
  /// Throws std::logic_error when the node already wrote any port this
  /// round.
  void broadcast(std::string_view bytes);

 private:
  friend class FlatEngine;
  static constexpr std::uint8_t kWrotePort = 1;
  static constexpr std::uint8_t kWroteBroadcast = 2;

  Outbox() = default;
  void count(std::size_t bytes, std::size_t messages) noexcept;

  const Colour* colours_ = nullptr;  // sorted incident colours
  int count_ = 0;
  std::uint8_t written_ = 0;  // kWrote* bits of the current sender this round
  MessageStats* stats_ = nullptr;
  // Off the plane: the node's slots and the round's byte buffer.
  PortSlot* slots_ = nullptr;
  std::string* bytes_ = nullptr;
  std::int32_t round_ = 0;
  // On the plane (flat engine; plane_ != nullptr selects it).
  FlatPlane* plane_ = nullptr;
  std::size_t base_ = 0;      // first slot of the node's own row
  std::size_t node_ = 0;      // the sender, indexing its broadcast slot
  std::uint8_t arena_ = 0;    // spill arena of the writing worker (≤ 256 workers)
  std::uint8_t stamp_ = 0;    // current round's tag: stamps written slots live
};

/// Read side of a round: the message that arrived on each port, in the
/// outbox's port order.  at() yields a contiguous byte view: a halted
/// neighbour's announcement (kHaltedPrefix and its output in decimal);
/// empty for a down neighbour, a silent port or a dropped message; else
/// what the neighbour wrote on the shared edge.  On the flat engine ports
/// resolve lazily, so a program that only cares about one colour (greedy
/// reads just the colour-(t+1) port) pays for one slot gather, not deg(v);
/// run_sync and the PN adapter hand over views they resolved already.
class Inbox {
 public:
  /// An inbox over messages the caller resolved: `messages[p]` arrived on
  /// the port of colour `colours[p]`.
  Inbox(std::span<const Colour> colours, const std::string_view* messages) noexcept
      : colours_(colours.data()), count_(static_cast<int>(colours.size())), messages_(messages) {}

  int ports() const noexcept { return count_; }
  Colour colour(int port) const noexcept { return colours_[port]; }
  /// Throws std::out_of_range for a port outside [0, ports()).
  std::string_view at(int port) const;  // flat_engine.cpp

 private:
  friend class FlatEngine;
  Inbox() = default;

  const Colour* colours_ = nullptr;
  int count_ = 0;
  const std::string_view* messages_ = nullptr;  // resolved views; null on the plane
  // On the plane (flat engine).
  const FlatEngine* engine_ = nullptr;
  const FlatPlane* plane_ = nullptr;
  std::size_t row_ = 0;  // first slot of the receiving node's row
  std::uint8_t stamp_ = 0;
};

/// Per-node state machine.  Implementations must be anonymous: the only
/// instance information ever provided is the list of incident edge colours
/// and the received messages (indexed by port, i.e. by incident colour,
/// which is how an anonymous node tells its ports apart in an
/// edge-coloured graph).  Every engine drives the same three calls; the
/// flat engine may also ask next_active_round and skip rounds in which the
/// node cannot act.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 1 with the node's initial knowledge: its
  /// incident colours, sorted — port p is the edge of colour incident[p].
  /// The engine keeps the row alive for the whole run, so a program may
  /// keep the span instead of copying it.  May halt immediately (return
  /// true) — that is a running time of 0.
  virtual bool init(std::span<const Colour> incident) = 0;

  /// Writes this round's outgoing messages, at most one per port.  Only
  /// called while the node is running.
  virtual void send(int round, Outbox& out) = 0;

  /// Delivers this round's incoming messages (one per port; for a halted
  /// neighbour its final announcement, prefixed by the engine with
  /// kHaltedPrefix).  Returns true to halt after this round.
  virtual bool receive(int round, const Inbox& in) = 0;

  /// The local output; valid once halted.
  virtual Colour output() const = 0;

  /// The next round in which the node can act, asked right after its
  /// receive in `round` returned false.  The contract: in every round r
  /// with round < r < the answer, send(r) would write the same bytes as
  /// send(round) did, and receive(r) would return false and change nothing
  /// that save_state or output can see, whatever the inbox holds.  The
  /// flat engine lets a node whose send(round) was one inline broadcast
  /// sleep until the answer when that skips two or more rounds
  /// (flat_engine.hpp); run_sync, the PN adapter and runs with a fault plan
  /// never ask.  The default, round + 1, never
  /// sleeps.  Debug and sanitizer builds step every sleeper anyway and
  /// throw std::logic_error when the contract fails.
  virtual int next_active_round(int round) const noexcept { return round + 1; }

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

/// A run's programs: n values of one NodeProgram type, built in place in
/// one uninitialised block, program v at byte v·sizeof(T), so pool[v] is
/// address arithmetic (no per-node pointer table) and the engines'
/// per-node walk is a sequential sweep.  The pool keeps its block across
/// refills: fill() destroys the previous programs and builds the new ones
/// in the same block whenever they fit, so a reused engine allocates
/// nothing.  A constructor (or callable) that throws at node i leaves
/// exactly the i programs before it, which clear() or the destructor
/// destroy once each.
class ProgramPool {
 public:
  ProgramPool() = default;
  ~ProgramPool() { clear(); }

  ProgramPool(const ProgramPool&) = delete;
  ProgramPool& operator=(const ProgramPool&) = delete;

  /// Replaces the programs with `count` results of make(), called once per
  /// node in node order.  Each is built in place (guaranteed copy elision:
  /// T need not be copyable or movable).
  template <class F>
  void fill(std::size_t count, F& make) {
    using T = std::invoke_result_t<F&>;
    static_assert(std::is_base_of_v<NodeProgram, T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "the block is aligned for operator new only");
    clear();
    if (count > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = count * sizeof(T);
    if (bytes > capacity_) {
      // Uninitialised: zero-filling 10⁷ programs would be 229 MiB of writes.
      block_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
      capacity_ = bytes;
    }
    stride_ = sizeof(T);
    std::byte* slot = block_.get();
    for (; size_ < count; ++size_, slot += sizeof(T)) {
      T* program = new (slot) T(make());
      // The NodeProgram base may sit at an offset inside T (after another
      // base); it is the same in every T, so take it from the first.
      if (size_ == 0) {
        base_offset_ = static_cast<std::size_t>(
            reinterpret_cast<std::byte*>(static_cast<NodeProgram*>(program)) - slot);
      }
    }
  }

  NodeProgram* operator[](std::size_t v) const noexcept {
    return std::launder(
        reinterpret_cast<NodeProgram*>(block_.get() + v * stride_ + base_offset_));
  }
  std::size_t size() const noexcept { return size_; }

  /// Destroys every program, the last built first; the block stays.
  void clear() noexcept {
    while (size_ > 0) (*this)[--size_]->~NodeProgram();
  }

 private:
  std::unique_ptr<std::byte[]> block_;
  std::size_t capacity_ = 0;     // bytes in block_
  std::size_t stride_ = 0;       // sizeof the programs' type
  std::size_t base_offset_ = 0;  // of NodeProgram inside that type
  std::size_t size_ = 0;         // programs built, node order
};

/// What the engines accept: a callable that returns a program by value,
/// e.g. `[] { return algo::GreedyProgram(); }`.  build() calls it once per
/// node, in node order, through one type-erased call per build (the
/// per-node loop is ProgramPool::fill, inlined for the callable's type).
/// Copies of a source share the callable and its state: a callable that
/// counts nodes keeps counting across every copy and every build.
class ProgramSource {
 public:
  ProgramSource() = default;

  template <class F, class T = std::invoke_result_t<F&>,
            std::enable_if_t<std::is_base_of_v<NodeProgram, T>, int> = 0>
  ProgramSource(F make)  // NOLINT(google-explicit-constructor)
      : make_(std::make_shared<F>(std::move(make))), fill_(&fill<F>) {}

  /// Refills `pool` with programs for `count` nodes (ProgramPool::fill).
  /// Throws std::logic_error when the source is empty.
  void build(std::size_t count, ProgramPool& pool) const;

 private:
  template <class F>
  static void fill(void* make, std::size_t count, ProgramPool& pool) {
    pool.fill(count, *static_cast<F*>(make));
  }

  std::shared_ptr<void> make_;  // the callable, shared by every copy
  void (*fill_)(void*, std::size_t, ProgramPool&) = nullptr;
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
  // and, on the flat engine, the constructor's CSR borrow, which builds the
  // CSR on a graph version's first flat run, and chunk planning), the part
  // one program block per run keeps small; surfaced as `init_ms` in the
  // BENCH_*.json schema.  Worker threads spawn later, on the first
  // parallel phase, inside send_ns.  Not part of engine equivalence.
  double init_ns = 0.0;
  // Wall-clock of the send and receive phases summed over every round
  // (fault phase 0 and checkpoint sinks excluded), surfaced as
  // `send_ms`/`receive_ms` in the BENCH_*.json schema so the per-phase
  // bench gate can tell a regressed send path from a regressed gather.
  // Not part of engine equivalence.
  double send_ns = 0.0;
  double receive_ns = 0.0;
  // Worker threads the run's Runtime (runtime.hpp) spawned on this run's
  // behalf.  A runtime spawns its persistent pool (threads − 1 workers
  // beyond the caller) once, on the first parallel phase of any run on it,
  // and parks it between phases, so this is constant in the round count:
  // threads − 1 for the run that triggered the spawn, 0 for every other
  // run — and for a run whose nodes all halt at init.  Over N sessions
  // sharing one runtime it sums to threads − 1.  0 on every serial path
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

/// Everything a run is parameterised by, in one struct; every entry point
/// takes it (`run_sync(g, source, {k + 1})` is a fault-free run).
struct RunOptions {
  /// Throw after this many rounds without global halt (a distributed
  /// algorithm that does not halt is a bug).  Must be positive.
  int max_rounds = 0;
  FaultOptions faults = {};
  CheckpointOptions checkpoint = {};
};

/// A round-stepped engine run (make_session, flat_engine.hpp).  A session
/// is created primed (programs built, init delivered, any checkpoint
/// resumed); each step() simulates exactly one synchronous round — send,
/// receive, update, plus that round's fault events and checkpoint sink.
/// When done(), result() moves the finished RunResult out (call it once).
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

/// Runs one copy of the program on every node until all have halted or
/// options.max_rounds is exceeded (which throws — a distributed algorithm
/// that does not halt is a bug), under the options' faults and
/// checkpointing.
RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options);

/// The library's simulation engines.  kSync is the reference oracle
/// (a per-run port table of its own and per-port message slots, every node
/// visited every round, engine.cpp); kFlat is the high-throughput CSR
/// message plane (flat_engine.cpp).  The two are required to agree on
/// every RunResult field for every program.
enum class EngineKind {
  kSync,
  kFlat,
};

/// Dispatches to run_sync or run_flat (with default FlatEngineOptions).
RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options);

/// "sync" / "flat".
const char* engine_kind_name(EngineKind kind) noexcept;

/// Inverse of engine_kind_name; nullopt for anything else.
std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept;

}  // namespace dmm::local
