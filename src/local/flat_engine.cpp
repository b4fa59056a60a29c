#include "local/flat_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "local/checkpoint.hpp"
#include "local/faults.hpp"

namespace dmm::local {

namespace {

/// Slot length value meaning "the payload spilled to the arena".
constexpr std::uint8_t kSpillLen = 0xff;

/// Auto chunking (FlatEngineOptions::chunk_slots == 0): aim for this many
/// chunks per worker so the tail imbalance of the last chunks stays a
/// small fraction of a phase, with a floor so tiny graphs do not shatter
/// into per-node chunks whose claim overhead exceeds their work.
constexpr std::size_t kChunksPerWorker = 16;
constexpr std::size_t kMinAutoChunkSlots = 1024;

double phase_elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

}  // namespace

// The persistent phase-dispatch pool lives in runtime.hpp as WorkerPool
// since the shared-Runtime refactor: a standalone engine still owns a
// private instance, a runtime-backed engine borrows the process-shared one.

/// One directed-edge message slot, sender-major: node v's outgoing message
/// on its i-th port lives at slot row[v] + i, so the send phase streams
/// sequentially and only the receive phase gathers.  A slot is live only
/// when its stamp equals the current round's 8-bit tag, which makes
/// clearing the plane between rounds unnecessary (the engine wipes the
/// plane once per 255-round tag cycle instead).  Payloads up to
/// kFlatInlineBytes live inline — 8 slots per cache line, so even a
/// million-edge plane stays cache-resident; longer payloads spill to the
/// writing worker's arena, addressed by the {offset, arena} pair stored in
/// the payload bytes.
struct FlatSlot {
  std::uint8_t stamp = 0;  // 0 = never written; round tags are 1..255
  std::uint8_t len = 0;    // inline length, or kSpillLen
  char payload[kFlatInlineBytes];
};
static_assert(sizeof(FlatSlot) == 8, "eight slots per cache line");
static_assert(kFlatInlineBytes >= 6, "payload must hold a spill {offset, arena} pair");

struct FlatPlane {
  std::vector<FlatSlot> slots;
  // Spill for unbounded messages, per worker.  A standalone engine owns
  // its arenas (own_arenas); a runtime-backed engine points `arenas` at
  // the shared Runtime set instead — spills are round-scoped scratch
  // (cleared by new_round, read only within the same step, never reachable
  // from a stale-stamped slot), and the runtime's borrow lock spans the
  // whole step, so sharing them across sessions is safe and keeps the
  // steady-state footprint one arena set per process, not per session.
  std::vector<std::vector<char>> own_arenas;
  std::vector<std::vector<char>>* arenas = &own_arenas;

  void configure(std::size_t slot_count, int workers,
                 std::vector<std::vector<char>>* shared) {
    slots.assign(slot_count, FlatSlot{});
    if (shared != nullptr) {
      arenas = shared;
      if (arenas->size() < static_cast<std::size_t>(workers)) {
        arenas->resize(static_cast<std::size_t>(workers));
      }
    } else {
      arenas = &own_arenas;
      own_arenas.resize(static_cast<std::size_t>(workers));
    }
  }

  /// Arena capacity is kept, so steady-state rounds allocate nothing; the
  /// slots themselves are invalidated by the round stamp, not by clearing.
  void new_round() {
    for (auto& arena : *arenas) arena.clear();
  }
};

struct alignas(64) FlatEngine::ChunkCursor {
  std::atomic<std::int64_t> next{0};
};

void FlatOutbox::set(int port, std::string_view bytes) {
  if (port < 0 || port >= count_) {
    throw std::out_of_range("FlatOutbox::set: port out of range");
  }
  stats_->max_bytes = std::max(stats_->max_bytes, bytes.size());
  stats_->total_bytes += bytes.size();
  ++stats_->sent;
  FlatSlot& slot = plane_->slots[flat_slot(base_, port)];
  slot.stamp = static_cast<std::uint8_t>(stamp_);
  if (bytes.size() <= kFlatInlineBytes) {
    slot.len = static_cast<std::uint8_t>(bytes.size());
    if (!bytes.empty()) std::memcpy(slot.payload, bytes.data(), bytes.size());
  } else {
    if (bytes.size() > 0xffffffffu) {
      throw std::length_error("FlatOutbox::set: message too long");
    }
    std::vector<char>& arena = (*plane_->arenas)[arena_];
    const std::uint64_t off = arena.size();  // byte cursor: always 64-bit
    if (off > kMaxSpillOffset) {
      throw std::length_error("FlatOutbox::set: spill arena exceeds the 40-bit offset space");
    }
    const auto len = static_cast<std::uint32_t>(bytes.size());
    arena.resize(arena.size() + sizeof(len) + bytes.size());
    std::memcpy(arena.data() + off, &len, sizeof(len));
    std::memcpy(arena.data() + off + sizeof(len), bytes.data(), bytes.size());
    slot.len = kSpillLen;
    // {offset:40, arena:8} packed little-endian byte by byte (portable).
    for (int i = 0; i < 5; ++i) {
      slot.payload[i] = static_cast<char>((off >> (8 * i)) & 0xff);
    }
    slot.payload[5] = static_cast<char>(arena_);
  }
}

void FlatOutbox::set_colour(Colour c, std::string_view bytes) {
  const Colour* end = colours_ + count_;
  const Colour* it = std::lower_bound(colours_, end, c);
  if (it != end && *it == c) {
    set(static_cast<int>(it - colours_), bytes);
    return;
  }
  // Not an incident colour: nothing to deliver, but run_sync counts every
  // message a program produces, so the accounting must match.
  stats_->max_bytes = std::max(stats_->max_bytes, bytes.size());
  stats_->total_bytes += bytes.size();
  ++stats_->sent;
}

void FlatOutbox::broadcast(std::string_view bytes) {
  if (count_ == 0) return;
  if (bytes.size() > kFlatInlineBytes) {
    // Spilling broadcasts are rare; the generic path handles the arena.
    for (int port = 0; port < count_; ++port) set(port, bytes);
    return;
  }
  // The hot path of constant-size protocols (greedy sends one status byte
  // to every neighbour): one stats update and one prepared 8-byte slot
  // store per port.
  stats_->max_bytes = std::max(stats_->max_bytes, bytes.size());
  stats_->total_bytes += bytes.size() * static_cast<std::size_t>(count_);
  stats_->sent += static_cast<std::size_t>(count_);
  FlatSlot proto;
  proto.stamp = static_cast<std::uint8_t>(stamp_);
  proto.len = static_cast<std::uint8_t>(bytes.size());
  if (!bytes.empty()) std::memcpy(proto.payload, bytes.data(), bytes.size());
  FlatSlot* row = plane_->slots.data() + base_;
  for (int port = 0; port < count_; ++port) row[port] = proto;
}

// Default flat hooks: bridge to the map-based API, preserving run_sync's
// semantics (and its message accounting) exactly.
bool NodeProgram::init_flat(const Colour* incident, int degree) {
  return init(std::vector<Colour>(incident, incident + degree));
}

void NodeProgram::send_flat(int round, FlatOutbox& out) {
  for (const auto& [colour, message] : send(round)) out.set_colour(colour, message);
}

bool NodeProgram::receive_flat(int round, const FlatInbox& in) {
  std::map<Colour, Message> inbox;
  for (int port = 0; port < in.ports(); ++port) {
    inbox.emplace(in.colour(port), Message(in.at(port)));
  }
  return receive(round, inbox);
}

FlatEngine::FlatEngine(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                       int max_rounds, const FlatEngineOptions& options, Runtime* runtime)
    : g_(g), source_(source), max_rounds_(max_rounds), runtime_(runtime) {
  // Everything the constructor does — borrowing (on a graph version's
  // first flat run: building) the CSR, chunk planning, spawning the
  // persistent pool — is setup work, timed into build_ns_ and folded into
  // RunResult::init_ns by run().
  const auto build_start = std::chrono::steady_clock::now();
  n_ = g.node_count();
  // Worker clamp: never more workers than nodes (an empty partition buys
  // nothing and the n = 0 / threads = 8 edge used to depend on every
  // phase tolerating it), never more than the one-byte spill-arena index
  // can address, and never fewer than one.  A runtime-backed engine takes
  // its worker budget from the shared runtime (the pool is process-wide
  // and fixed-size), not from options.threads.
  const int budget = runtime_ != nullptr ? runtime_->threads() : options.threads;
  workers_ = std::max(1, std::min(budget, kMaxFlatWorkers));
  if (workers_ > n_) workers_ = std::max(1, n_);
  steal_ = options.steal;
  csr_ = g.csr();
  if (workers_ > 1) {
    plan_chunks(options.chunk_slots);
    if (runtime_ == nullptr) {
      // The private pool is spawned exactly once per engine and parked
      // between phases — per-round thread creations are zero by
      // construction.  A runtime-backed engine spawns nothing: the shared
      // pool is created lazily by the runtime, once per process.
      pool_threads_ = std::make_unique<WorkerPool>(workers_ - 1);
    }
  }
  plane_ = std::make_unique<FlatPlane>();
  build_ns_ = phase_elapsed_ns(build_start);
}

FlatEngine::~FlatEngine() = default;

void FlatEngine::initialise(const EngineCheckpoint* cp) {
  result_ = RunResult{};
  result_.outputs.assign(static_cast<std::size_t>(n_), kUnmatched);
  result_.halt_round.assign(static_cast<std::size_t>(n_), -1);
  halted_.assign(static_cast<std::size_t>(n_), 0);
  down_.assign(static_cast<std::size_t>(n_), 0);
  dead_.assign(static_cast<std::size_t>(n_), 0);
  announcements_.assign(static_cast<std::size_t>(n_), {});
  pool_.clear();
  pool_.reserve(static_cast<std::size_t>(n_));

  // Setup phase (timed into init_ns): batch-construct every program in
  // the pool's arena, then hand each node a pointer straight into its
  // CSR colour row — no per-node vector is materialised.
  const graph::Csr& csr = *csr_;
  const auto init_start = std::chrono::steady_clock::now();
  source_.build(static_cast<std::size_t>(n_), pool_);
  running_ = n_;
  round_ = 0;
  if (cp != nullptr) {
    // init still runs on every node — programs re-derive graph-shaped
    // state from it; the round-0 halt decisions it reports are already in
    // the checkpoint, and load_state overwrites the dynamic state.
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
      pool_[static_cast<std::size_t>(v)]->init_flat(csr.port_colour.data() + begin,
                                                    csr.degree(v));
    }
    for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
      result_.outputs[v] = cp->outputs[v];
      result_.halt_round[v] = cp->halt_round[v];
      halted_[v] = static_cast<char>(cp->halted[v]);
      down_[v] = static_cast<char>(cp->down[v]);
      dead_[v] = static_cast<char>(cp->dead[v]);
    }
    running_ = cp->running;
    round_ = cp->round;
    result_.crashes = cp->crashes;
    result_.restarts = cp->restarts;
    result_.messages_dropped = cp->messages_dropped;
    result_.max_message_bytes = static_cast<std::size_t>(cp->max_message_bytes);
    result_.total_message_bytes = static_cast<std::size_t>(cp->total_message_bytes);
    result_.messages_sent = static_cast<std::size_t>(cp->messages_sent);
    std::size_t blob = 0;
    for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
      if (halted_[v] || dead_[v]) continue;
      pool_[v]->load_state(cp->program_state[blob++]);
    }
  } else {
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
      if (pool_[static_cast<std::size_t>(v)]->init_flat(csr.port_colour.data() + begin,
                                                        csr.degree(v))) {
        halt(v, /*round=*/0);
        --running_;
      }
    }
  }
  result_.init_ns = build_ns_ + phase_elapsed_ns(init_start);
  result_.threads_spawned = pool_threads_ ? pool_threads_->spawned() : 0;

  // Everything the rounds need is built lazily: a 0-round algorithm on a
  // million nodes never pays for the message plane.
  planes_ready_ = false;
  stats_.assign(static_cast<std::size_t>(workers_), MessageStats{});
  newly_halted_.assign(static_cast<std::size_t>(workers_), {});
}

RunResult FlatEngine::run() { return run(FaultOptions{}); }

RunResult FlatEngine::run(const FaultOptions& faults, const CheckpointOptions& checkpoint) {
  begin(RunOptions{max_rounds_, faults, checkpoint});
  while (!done()) step();
  return finish();
}

void FlatEngine::begin(const RunOptions& options) {
  if (options.max_rounds > 0) max_rounds_ = options.max_rounds;
  plan_ = (options.faults.plan != nullptr && !options.faults.plan->empty())
              ? options.faults.plan
              : nullptr;
  if (plan_ != nullptr) plan_->require_fits(n_);
  faulty_ = plan_ != nullptr;
  drop_mask_ = plan_ != nullptr && plan_->has_drops();
  if (options.checkpoint.resume != nullptr) restore(*options.checkpoint.resume);
  if (!primed_) initialise(nullptr);
  primed_ = false;
  every_ = options.checkpoint.every;
  sink_ = options.checkpoint.sink;
  // On a resume the checkpointed flags already reflect every fault event
  // up to round_, so the cursor skips them.
  ev_ = plan_ != nullptr ? plan_->first_event_at(round_ + 1) : 0;
}

void FlatEngine::step() {
  const int round = round_ + 1;
  if (round > max_rounds_) {
    throw std::runtime_error("run_flat: algorithm did not halt within max_rounds");
  }
  step_round(round);
  round_ = round;
  // Round `round` is now complete — the only point a checkpoint can be
  // captured (checkpoint.hpp explains why round boundaries suffice).
  if (every_ > 0 && sink_ && running_ > 0 && round % every_ == 0) {
    sink_(snapshot());
  }
}

void FlatEngine::step_round(int round) {
  // Borrow the shared runtime for the WHOLE step, not per phase: the spill
  // arenas are shared across sessions and a payload spilled in the send
  // phase is read in this step's receive phase — another session's step in
  // between would clear it.  Standalone engines (runtime_ == nullptr) take
  // no lock; their pool and arenas are private.
  std::unique_lock<std::mutex> borrow;
  if (runtime_ != nullptr) borrow = std::unique_lock<std::mutex>(runtime_->mutex());
  const graph::Csr& csr = *csr_;
  round_now_ = round;
  // Phase 0: apply this round's fault events before the send phase.  A
  // crash aimed at a halted or dead node is a no-op; a permanent crash
  // removes the node from the run (output stays ⊥, halt_round −1).
  if (plan_ != nullptr) {
    const std::vector<FaultEvent>& events = plan_->events();
    while (ev_ < events.size() && events[ev_].round <= round) {
      const FaultEvent& e = events[ev_++];
      if (e.node < 0 || e.node >= n_) {
        throw std::invalid_argument("FaultPlan: event targets a node outside the graph");
      }
      const auto v = static_cast<std::size_t>(e.node);
      if (e.up) {
        if (!halted_[v] && !dead_[v] && down_[v]) {
          down_[v] = 0;
          ++result_.restarts;
        }
      } else {
        if (!halted_[v] && !dead_[v]) {
          down_[v] = 1;
          ++result_.crashes;
          if (e.permanent) {
            dead_[v] = 1;
            --running_;
          }
        }
      }
    }
  }
  if (!planes_ready_) {
    plane_->configure(csr.slot_count(), workers_,
                      runtime_ != nullptr ? &runtime_->arenas() : nullptr);
    // Halts recorded before the first simulated round (round-0 halts, or
    // everything a restored checkpoint carries) rendered no announcements
    // yet; render the ones with a live audience now.
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)]) render_announcement(v);
    }
    planes_ready_ = true;
  }
  // One contiguous plane, reused every round: the round stamp plays the
  // role of the classic send/recv buffer swap — a slot whose stamp is
  // not this round's tag is last round's (or older) data and reads as
  // absent, so nothing needs clearing.  Tags cycle through 1..255; the
  // plane is wiped when the cycle restarts so a stale stamp can never
  // alias.  (A restored engine starts mid-cycle on a freshly zeroed
  // plane — stamp 0 never matches a round tag, so that reads as absent
  // exactly like the uninterrupted run's stale-stamp slots.)
  const auto stamp = static_cast<std::uint8_t>(1 + (round - 1) % 255);
  if (round > 1 && stamp == 1) wipe_running_rows();
  FlatPlane& plane = *plane_;
  plane.new_round();

  // Phase 1: running nodes stream this round's messages into their own
  // slot rows; down and dead nodes send nothing.  A chunk (contiguous node
  // range) is claimed by exactly one worker per phase, so no two workers
  // ever touch the same slot.
  const auto send_start = std::chrono::steady_clock::now();
  for_chunks([&](int worker, graph::NodeIndex begin, graph::NodeIndex end) {
    FlatOutbox out;
    out.plane_ = &plane;
    out.arena_ = static_cast<std::uint8_t>(worker);
    out.stats_ = &stats_[static_cast<std::size_t>(worker)];
    out.stamp_ = stamp;
    for (graph::NodeIndex v = begin; v < end; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      out.base_ = csr.row[static_cast<std::size_t>(v)];
      out.colours_ = csr.port_colour.data() + out.base_;
      out.count_ = csr.degree(v);
      pool_[static_cast<std::size_t>(v)]->send_flat(round, out);
    }
  });

  // Drop accounting: one serial pass over the freshly stamped slots,
  // counting exactly what run_sync counts while building its inboxes — a
  // message actually in flight (running sender wrote the port, running
  // receiver on the other end) whose (round, sender, colour) hash says
  // drop.  The count is therefore read-independent: a program that never
  // reads the port still loses (and counts) the same messages.  Delivery
  // masking happens separately in resolve().
  if (drop_mask_) {
    for (graph::NodeIndex u = 0; u < n_; ++u) {
      if (halted_[static_cast<std::size_t>(u)] || down_[static_cast<std::size_t>(u)]) continue;
      const std::size_t begin = csr.row[static_cast<std::size_t>(u)];
      const std::size_t end = csr.row[static_cast<std::size_t>(u) + 1];
      for (std::size_t s = begin; s < end; ++s) {
        if (plane.slots[s].stamp != stamp) continue;
        const graph::NodeIndex r = csr.peer_node[s];
        if (halted_[static_cast<std::size_t>(r)] || down_[static_cast<std::size_t>(r)]) continue;
        if (plan_->drops(round, u, csr.port_colour[s])) ++result_.messages_dropped;
      }
    }
  }
  result_.send_ns += phase_elapsed_ns(send_start);

  const auto receive_start = std::chrono::steady_clock::now();
  // Phase 2: hand each running node a lazy view over its peers' slots,
  // reflecting the start-of-round halted state (a node halting this
  // round must not leak its decision to same-round receivers).  New
  // halts are collected per worker and applied after the barrier.
  for_chunks([&](int worker, graph::NodeIndex begin, graph::NodeIndex end) {
    for (graph::NodeIndex v = begin; v < end; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      const std::size_t row = csr.row[static_cast<std::size_t>(v)];
      FlatInbox in;
      in.engine_ = this;
      in.plane_ = &plane;
      in.colours_ = csr.port_colour.data() + row;
      in.row_ = row;
      in.count_ = csr.degree(v);
      in.stamp_ = stamp;
      if (pool_[static_cast<std::size_t>(v)]->receive_flat(round, in)) {
        newly_halted_[static_cast<std::size_t>(worker)].push_back(v);
      }
    }
  });

  for (auto& batch : newly_halted_) {
    for (graph::NodeIndex v : batch) {
      halt(v, round);
      --running_;
    }
  }
  // Render after every same-round halt is marked, so the audience
  // check sees the final halted state.
  for (auto& batch : newly_halted_) {
    for (graph::NodeIndex v : batch) render_announcement(v);
    batch.clear();
  }
  result_.receive_ns += phase_elapsed_ns(receive_start);
}

RunResult FlatEngine::finish() {
  for (const MessageStats& s : stats_) {
    result_.max_message_bytes = std::max(result_.max_message_bytes, s.max_bytes);
    result_.total_message_bytes += s.total_bytes;
    result_.messages_sent += s.sent;
  }
  stats_.assign(static_cast<std::size_t>(workers_), MessageStats{});
  for (int r : result_.halt_round) result_.rounds = std::max(result_.rounds, r);
  return std::move(result_);
}

EngineCheckpoint FlatEngine::snapshot() const {
  EngineCheckpoint cp;
  cp.node_count = n_;
  cp.k = g_.k();
  cp.edge_hash = graph_fingerprint(g_);
  cp.round = round_;
  cp.running = running_;
  cp.crashes = result_.crashes;
  cp.restarts = result_.restarts;
  cp.messages_dropped = result_.messages_dropped;
  // The per-worker stats are merged into the checkpoint exactly like
  // finalise merges them into the RunResult — both folds are commutative,
  // so the checkpointed totals equal run_sync's inline accounting.
  std::size_t max_bytes = result_.max_message_bytes;
  std::size_t total_bytes = result_.total_message_bytes;
  std::size_t sent = result_.messages_sent;
  for (const MessageStats& s : stats_) {
    max_bytes = std::max(max_bytes, s.max_bytes);
    total_bytes += s.total_bytes;
    sent += s.sent;
  }
  cp.max_message_bytes = max_bytes;
  cp.total_message_bytes = total_bytes;
  cp.messages_sent = sent;
  cp.outputs = result_.outputs;
  cp.halt_round.assign(result_.halt_round.begin(), result_.halt_round.end());
  cp.halted.assign(halted_.begin(), halted_.end());
  cp.down.assign(down_.begin(), down_.end());
  cp.dead.assign(dead_.begin(), dead_.end());
  for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
    if (halted_[v] || dead_[v]) continue;
    std::string blob;
    pool_[v]->save_state(blob);
    cp.program_state.push_back(std::move(blob));
  }
  return cp;
}

void FlatEngine::checkpoint(std::ostream& out) const { snapshot().write(out); }

void FlatEngine::restore(const EngineCheckpoint& cp) {
  cp.require_matches(g_);
  initialise(&cp);
  primed_ = true;
}

void FlatEngine::restore(std::istream& in) { restore(EngineCheckpoint::read(in)); }

std::string_view FlatEngine::resolve(const FlatPlane& plane, std::size_t s,
                                     std::uint8_t stamp) const noexcept {
  const graph::Csr& csr = *csr_;
  const graph::NodeIndex u = csr.peer_node[s];
  if (halted_[static_cast<std::size_t>(u)]) {
    return announcements_[static_cast<std::size_t>(u)];
  }
  // A down (or dead) sender reads as absent on the shared edge.
  if (faulty_ && down_[static_cast<std::size_t>(u)]) return {};
  const std::size_t u_row = csr.row[static_cast<std::size_t>(u)];
  const std::size_t u_end = csr.row[static_cast<std::size_t>(u) + 1];
  const auto begin = csr.port_colour.begin() + static_cast<std::ptrdiff_t>(u_row);
  const auto end = csr.port_colour.begin() + static_cast<std::ptrdiff_t>(u_end);
  const auto it = std::lower_bound(begin, end, csr.port_colour[s]);
  const std::string_view view =
      slot_view(plane, u_row + static_cast<std::size_t>(it - begin), stamp);
  // Drop masking: a message the sender actually wrote this round reads as
  // absent when the (round, sender, colour) hash says drop.  Counting
  // happened in the serial pass of step_round; this is delivery only.
  if (drop_mask_ && !view.empty() && plan_->drops(round_now_, u, csr.port_colour[s])) {
    return {};
  }
  return view;
}

std::string_view FlatEngine::slot_view(const FlatPlane& plane, std::size_t s,
                                       std::uint8_t stamp) const noexcept {
  const FlatSlot& slot = plane.slots[s];
  if (slot.stamp != stamp) return {};
  if (slot.len != kSpillLen) return {slot.payload, slot.len};
  // Unpack the {offset:40, arena:8} spill address written by
  // FlatOutbox::set; the offset expands into a 64-bit cursor.
  std::uint64_t off = 0;
  for (int i = 0; i < 5; ++i) {
    off |= static_cast<std::uint64_t>(static_cast<unsigned char>(slot.payload[i])) << (8 * i);
  }
  const auto arena = static_cast<unsigned char>(slot.payload[5]);
  std::uint32_t len = 0;
  const char* base = (*plane.arenas)[arena].data() + off;
  std::memcpy(&len, base, sizeof(len));
  return {base + sizeof(len), len};
}

void FlatEngine::halt(graph::NodeIndex v, int round) {
  halted_[static_cast<std::size_t>(v)] = 1;
  result_.halt_round[static_cast<std::size_t>(v)] = round;
  result_.outputs[static_cast<std::size_t>(v)] =
      pool_[static_cast<std::size_t>(v)]->output();
}

/// Announcement cache: rendered once per halted node — and only for nodes
/// with a non-halted neighbour, since nobody else ever reads the slot
/// (run_sync re-renders this string per edge per round).  A down peer
/// counts as audience: it may restart and read the announcement later.
void FlatEngine::render_announcement(graph::NodeIndex v) {
  const graph::Csr& csr = *csr_;
  const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
  const std::size_t end = csr.row[static_cast<std::size_t>(v) + 1];
  bool audience = false;
  for (std::size_t s = begin; s < end && !audience; ++s) {
    audience = !halted_[static_cast<std::size_t>(csr.peer_node[s])];
  }
  if (!audience) return;
  announcements_[static_cast<std::size_t>(v)] =
      std::string(1, kHaltedPrefix) +
      std::to_string(static_cast<int>(result_.outputs[static_cast<std::size_t>(v)]));
}

/// The tag cycle restarted: every stamp value is about to be reused, so
/// stale slots must be cleared — but only in rows whose sender is still
/// running.  A halted node never writes again, and resolve() serves its
/// cached announcement without ever reading its slots, so halted rows
/// are dead storage; the old full-plane wipe rewrote them every cycle
/// (pinned by the two-tag-cycle regression in tests/test_flat_stress.cpp).
/// Down rows are wiped too: a down node may restart mid-cycle and leave
/// unwritten ports whose stale stamps must never alias a fresh tag.
void FlatEngine::wipe_running_rows() {
  const graph::Csr& csr = *csr_;
  for (graph::NodeIndex v = 0; v < n_; ++v) {
    if (halted_[static_cast<std::size_t>(v)]) continue;
    const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
    const std::size_t end = csr.row[static_cast<std::size_t>(v) + 1];
    std::fill(plane_->slots.begin() + static_cast<std::ptrdiff_t>(begin),
              plane_->slots.begin() + static_cast<std::ptrdiff_t>(end), FlatSlot{});
  }
}

/// Pre-splits the node range into chunks of roughly `target` slot
/// (directed-edge) weight — a node costs 1 + degree, so a run of
/// max-degree hub rows splits into many chunks while the same node count
/// of leaves packs into one.  The chunk list is then divided into one
/// contiguous run per worker, balanced by cumulative weight; each run
/// gets a cache-line-isolated atomic cursor that for_chunks resets per
/// phase and workers drain (and steal from) with fetch_add.
void FlatEngine::plan_chunks(std::size_t chunk_slots) {
  const graph::Csr& csr = *csr_;
  const std::size_t total = csr.slot_count() + static_cast<std::size_t>(n_);
  std::size_t target = chunk_slots;
  if (target == 0) {
    target = std::max(kMinAutoChunkSlots,
                      total / (static_cast<std::size_t>(workers_) * kChunksPerWorker));
  }
  chunks_.clear();
  std::vector<std::size_t> weight;  // per chunk, for the run split below
  {
    graph::NodeIndex begin = 0;
    std::size_t acc = 0;
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      acc += 1 + static_cast<std::size_t>(csr.degree(v));
      if (acc >= target) {
        chunks_.push_back({begin, v + 1});
        weight.push_back(acc);
        begin = v + 1;
        acc = 0;
      }
    }
    if (begin < n_) {
      chunks_.push_back({begin, n_});
      weight.push_back(acc);
    }
  }
  // Contiguous per-worker runs with balanced cumulative weight: worker w
  // owns chunks [run_begin_[w], run_end_[w]).  Runs may be empty (fewer
  // chunks than workers); the drain loop tolerates that.
  run_begin_.assign(static_cast<std::size_t>(workers_), 0);
  run_end_.assign(static_cast<std::size_t>(workers_), 0);
  cursors_ = std::make_unique<ChunkCursor[]>(static_cast<std::size_t>(workers_));
  std::size_t cut = 0;
  std::size_t carried = 0;
  for (int w = 0; w < workers_; ++w) {
    const std::size_t share =
        total * static_cast<std::size_t>(w + 1) / static_cast<std::size_t>(workers_);
    run_begin_[static_cast<std::size_t>(w)] = static_cast<std::int64_t>(cut);
    while (cut < chunks_.size() && carried + weight[cut] <= share) {
      carried += weight[cut];
      ++cut;
    }
    if (w + 1 == workers_) cut = chunks_.size();  // the tail always lands somewhere
    run_end_[static_cast<std::size_t>(w)] = static_cast<std::int64_t>(cut);
  }
}

/// Runs fn(worker, begin, end) over the planned chunks, in-line when
/// workers_ == 1.  Each worker drains its own chunk run through an
/// atomic cursor, then (when stealing is on) round-robins through the
/// other workers' cursors until every run is dry — so a worker stuck on
/// hub-heavy chunks cannot leave the rest idle.  `worker` is always the
/// *executing* worker: stats, spill arenas and halt batches stay
/// worker-indexed no matter whose chunk is being run, which is what
/// keeps results schedule-independent.  Exceptions propagate through
/// the pool's first-exception-wins barrier, matching the serial
/// engine's fail-fast contract.
template <class F>
void FlatEngine::for_chunks(const F& fn) {
  if (workers_ == 1) {
    fn(0, 0, n_);
    return;
  }
  for (int w = 0; w < workers_; ++w) {
    cursors_[static_cast<std::size_t>(w)].next.store(run_begin_[static_cast<std::size_t>(w)],
                                                     std::memory_order_relaxed);
  }
  auto phase = [&](int worker) {
    // The shared pool may carry more parked threads than this engine has
    // workers (the runtime budget is clamped per engine by node count);
    // surplus workers sit the phase out.
    if (worker >= workers_) return;
    drain(worker, worker, fn);
    if (!steal_) return;
    for (int step = 1; step < workers_; ++step) {
      drain((worker + step) % workers_, worker, fn);
    }
  };
  if (runtime_ != nullptr) {
    // Lazy shared-pool spawn: exactly one session's call creates the
    // threads and inherits them into its threads_spawned gauge; every
    // other session adds 0, so the per-process sum stays threads - 1.
    result_.threads_spawned += runtime_->ensure_pool();
    runtime_->pool()->run(phase);
  } else {
    pool_threads_->run(phase);
  }
}

/// Claims chunks from `victim`'s run until its cursor passes the end and
/// executes them as `worker`.  The cursor is a relaxed fetch_add:
/// claimed values are unique, overshoot past the end is harmless (the
/// cursor is reset before the next phase), and the pool's phase barrier
/// provides all cross-phase ordering.
template <class F>
void FlatEngine::drain(int victim, int worker, const F& fn) {
  const std::int64_t end = run_end_[static_cast<std::size_t>(victim)];
  std::atomic<std::int64_t>& cursor = cursors_[static_cast<std::size_t>(victim)].next;
  for (;;) {
    const std::int64_t c = cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= end) return;
    const Chunk& chunk = chunks_[static_cast<std::size_t>(c)];
    fn(worker, chunk.begin, chunk.end);
  }
}

std::string_view FlatInbox::at(int port) const {
  if (port < 0 || port >= count_) {
    throw std::out_of_range("FlatInbox::at: port out of range");
  }
  return engine_->resolve(*plane_, flat_slot(row_, port), stamp_);
}

namespace {

/// Session adapter over FlatEngine: the engine IS the stepped run; this
/// class only owns it and forwards the Session verbs.
class FlatSession final : public Session {
 public:
  FlatSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
              const RunOptions& options, const FlatEngineOptions& engine_options,
              Runtime* runtime)
      : engine_(g, source, options.max_rounds, engine_options, runtime) {
    engine_.begin(options);
  }

  void step() override { engine_.step(); }
  bool done() const noexcept override { return engine_.done(); }
  int round() const noexcept override { return engine_.round(); }
  RunResult result() override { return engine_.finish(); }

 private:
  FlatEngine engine_;
};

}  // namespace

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds, const FlatEngineOptions& options) {
  return FlatEngine(g, source, max_rounds, options).run();
}

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   int max_rounds, const FlatEngineOptions& options,
                   const FaultOptions& faults, const CheckpointOptions& checkpoint) {
  return FlatEngine(g, source, max_rounds, options).run(faults, checkpoint);
}

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options,
                   Runtime* runtime) {
  FlatEngine engine(g, source, options.max_rounds, engine_options, runtime);
  engine.begin(options);
  while (!engine.done()) engine.step();
  return engine.finish();
}

std::unique_ptr<Session> make_flat_session(const graph::EdgeColouredGraph& g,
                                           const ProgramSource& source,
                                           const RunOptions& options,
                                           const FlatEngineOptions& engine_options,
                                           Runtime* runtime) {
  return std::make_unique<FlatSession>(g, source, options, engine_options, runtime);
}

std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      const FlatEngineOptions& engine_options,
                                      Runtime* runtime) {
  switch (kind) {
    case EngineKind::kFlat:
      return make_flat_session(g, source, options, engine_options, runtime);
    case EngineKind::kSync:
      break;
  }
  return make_sync_session(g, source, options);
}

RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, int max_rounds) {
  return run(kind, g, source, RunOptions{max_rounds, {}, {}});
}

RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, int max_rounds, const FaultOptions& faults,
              const CheckpointOptions& checkpoint) {
  return run(kind, g, source, RunOptions{max_rounds, faults, checkpoint});
}

RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options) {
  switch (kind) {
    case EngineKind::kFlat:
      return run_flat(g, source, options);
    case EngineKind::kSync:
      break;
  }
  return run_sync(g, source, options);
}

const char* engine_kind_name(EngineKind kind) noexcept {
  return kind == EngineKind::kFlat ? "flat" : "sync";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) noexcept {
  if (name == "sync") return EngineKind::kSync;
  if (name == "flat") return EngineKind::kFlat;
  return std::nullopt;
}

}  // namespace dmm::local
