#include "local/flat_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

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

/// Buckets of the sleepers' timing wheel: a sleep lasts at most
/// kWakeWheel − 1 rounds, so every node in bucket r % kWakeWheel wakes in
/// round r.  A node that asks for a later round is woken early and asked
/// again, which the next_active_round contract allows.
constexpr int kWakeWheel = 256;

/// A sleep costs a wheel entry, a wake and a merge back into the live
/// list, about what stepping the node through a round costs, so a node
/// sleeps only when it would skip at least this many rounds.  (Greedy at
/// n = 10⁵, k = 12, serial, on a 4-core x86 container: with one-round
/// sleeps too, send + receive read ~19 ms; with this bound, ~17 ms.)
constexpr int kMinSkippedRounds = 2;

/// A sleeper's broadcast slot keeps its payload and gains this bit in its
/// length, which makes resolve() serve it whatever its stamp says.
/// Broadcast slots only ever hold inline payloads, so the bit is free.
constexpr std::uint8_t kSleepingLen = 0x80;

/// Builds without NDEBUG, and sanitizer builds (CMakeLists.txt), step every
/// sleeper anyway and check the next_active_round contract.
#if !defined(NDEBUG) || defined(DMM_SLEEP_CONTRACT_CHECK)
constexpr bool kCheckSleepers = true;
#else
constexpr bool kCheckSleepers = false;
#endif

double phase_elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

/// A halted node's announcement: kHaltedPrefix and its output in decimal,
/// the string run_sync renders per edge per round.  Outputs are one byte,
/// so one table covers every node of every run.
struct Announcement {
  char bytes[4] = {};
  std::uint8_t len = 0;
};

constexpr std::array<Announcement, 256> make_announcements() {
  std::array<Announcement, 256> table{};
  for (int output = 0; output < 256; ++output) {
    Announcement& a = table[static_cast<std::size_t>(output)];
    a.bytes[a.len++] = kHaltedPrefix;
    if (output >= 100) a.bytes[a.len++] = static_cast<char>('0' + output / 100);
    if (output >= 10) a.bytes[a.len++] = static_cast<char>('0' + output / 10 % 10);
    a.bytes[a.len++] = static_cast<char>('0' + output % 10);
  }
  return table;
}

constexpr std::array<Announcement, 256> kAnnouncements = make_announcements();
static_assert(sizeof(Colour) == 1, "the announcement table covers every output byte");

}  // namespace

/// One directed-edge message slot, sender-major: node v's outgoing message
/// on its i-th port lives at slot row[v] + i, so the send phase streams
/// sequentially and only the receive phase gathers.  A slot is live only
/// when its stamp equals the current round's 8-bit tag, which makes
/// clearing the plane between rounds unnecessary (the engine wipes the
/// live senders' rows once per 255-round tag cycle instead).  Payloads up to
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
static_assert(kFlatInlineBytes < kSleepingLen, "an inline length never carries the sleeping bit");

struct FlatPlane {
  std::vector<FlatSlot> slots;
  // One slot per sender for an inline broadcast: Outbox::broadcast
  // stamps it once instead of copying the payload into every port slot,
  // and resolve() reads it before the port slots.  The one-write rule
  // means at most one of the two is stamped in any round.
  std::vector<FlatSlot> broadcast;
  // Spill for unbounded messages, per worker: the engine's Runtime set,
  // one arena per worker id.  Spills are round-scoped scratch (cleared by
  // new_round, read only within the same step, never reachable from a
  // stale-stamped slot), and the runtime's borrow lock spans the whole
  // step, so sessions sharing a runtime share its arenas safely and the
  // steady-state footprint is one arena set per runtime, not per session.
  std::vector<std::vector<char>>* arenas = nullptr;

  void configure(std::size_t slot_count, std::size_t node_count) {
    slots.assign(slot_count, FlatSlot{});
    broadcast.assign(node_count, FlatSlot{});
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

void Outbox::count(std::size_t bytes, std::size_t messages) noexcept {
  stats_->max_bytes = std::max(stats_->max_bytes, bytes);
  stats_->total_bytes += bytes * messages;
  stats_->sent += messages;
}

void Outbox::set(int port, std::string_view bytes) {
  if (port < 0 || port >= count_) {
    throw std::out_of_range("Outbox::set: port out of range");
  }
  // A slot carrying this round's tag was written this round (on the plane,
  // the tag-cycle wipe clears every live row before a tag is reused).
  const bool written = plane_ != nullptr
                           ? plane_->slots[flat_slot(base_, port)].stamp == stamp_
                           : slots_[port].round == round_;
  if ((written_ & kWroteBroadcast) != 0 || written) {
    throw std::logic_error("Outbox::set: port already written this round");
  }
  if (bytes.size() > 0xffffffffu) {
    throw std::length_error("Outbox::set: message too long");
  }
  written_ |= kWrotePort;
  count(bytes.size(), 1);
  if (plane_ == nullptr) {
    slots_[port] = {bytes_->size(), static_cast<std::uint32_t>(bytes.size()), round_};
    bytes_->append(bytes);
    return;
  }
  FlatSlot& slot = plane_->slots[flat_slot(base_, port)];
  slot.stamp = stamp_;
  if (bytes.size() <= kFlatInlineBytes) {
    slot.len = static_cast<std::uint8_t>(bytes.size());
    if (!bytes.empty()) std::memcpy(slot.payload, bytes.data(), bytes.size());
  } else {
    std::vector<char>& arena = (*plane_->arenas)[arena_];
    const std::uint64_t off = arena.size();  // byte cursor: always 64-bit
    if (off > kMaxSpillOffset) {
      throw std::length_error("Outbox::set: spill arena exceeds the 40-bit offset space");
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

void Outbox::set_colour(Colour c, std::string_view bytes) {
  const Colour* end = colours_ + count_;
  const Colour* it = std::lower_bound(colours_, end, c);
  if (it != end && *it == c) {
    set(static_cast<int>(it - colours_), bytes);
    return;
  }
  // Not an incident colour: nothing to deliver, but the message was
  // produced, and the accounting counts everything a program produces.
  count(bytes.size(), 1);
}

void Outbox::broadcast(std::string_view bytes) {
  if (count_ == 0) return;
  if (written_ != 0) {
    throw std::logic_error("Outbox::broadcast: a port was already written this round");
  }
  if (plane_ == nullptr || bytes.size() > kFlatInlineBytes) {
    // Off the plane, and for a payload that spills (rare), a broadcast is
    // one set() per port.
    for (int port = 0; port < count_; ++port) set(port, bytes);
    written_ = kWroteBroadcast;
    return;
  }
  // The hot path of constant-size protocols (greedy sends one status byte
  // to every neighbour): one stats update and one 8-byte slot store for
  // the whole node, still counted as one message per port.
  written_ = kWroteBroadcast;
  count(bytes.size(), static_cast<std::size_t>(count_));
  FlatSlot& slot = plane_->broadcast[node_];
  slot.stamp = stamp_;
  slot.len = static_cast<std::uint8_t>(bytes.size());
  if (!bytes.empty()) std::memcpy(slot.payload, bytes.data(), bytes.size());
}

FlatEngine::FlatEngine(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                       int max_rounds, const FlatEngineOptions& options, Runtime* runtime)
    : source_(source), max_rounds_(max_rounds), runtime_(runtime), state_(g, EngineKind::kFlat) {
  // Everything the constructor does — borrowing (on a graph version's
  // first flat run: building) the CSR, chunk planning — is setup work,
  // timed into build_ns_ and folded into RunResult::init_ns.
  const auto build_start = std::chrono::steady_clock::now();
  n_ = g.node_count();
  // Worker clamp: never more workers than nodes (an empty partition buys
  // nothing and the n = 0 / threads = 8 edge used to depend on every
  // phase tolerating it), never more than the one-byte spill-arena index
  // can address, and never fewer than one.  A runtime-backed engine takes
  // its worker budget from the shared runtime (its pool is fixed-size),
  // not from options.threads.
  const int budget = runtime_ != nullptr ? runtime_->threads() : options.threads;
  workers_ = std::max(1, std::min(budget, kMaxFlatWorkers));
  if (workers_ > n_) workers_ = std::max(1, n_);
  steal_ = options.steal;
  csr_ = g.csr();
  if (workers_ > 1) plan_chunks(options.chunk_slots);
  if (runtime_ == nullptr) {
    own_runtime_ = std::make_unique<Runtime>(workers_);
    runtime_ = own_runtime_.get();
  }
  plane_ = std::make_unique<FlatPlane>();
  plane_->arenas = &runtime_->arenas();
  build_ns_ = phase_elapsed_ns(build_start);
}

FlatEngine::~FlatEngine() = default;

void FlatEngine::initialise(const EngineCheckpoint* cp) {
  state_.reset();
  pool_.clear();
  pool_.reserve(static_cast<std::size_t>(n_));

  // Setup phase (timed into init_ns): batch-construct every program in
  // the pool's arena, then hand each node a span straight into its CSR
  // colour row — no per-node vector is materialised.  On a resume init
  // still runs on every node — programs re-derive graph-shaped state from
  // it — but the round-0 halts it reports are already in the checkpoint.
  const graph::Csr& csr = *csr_;
  const auto init_start = std::chrono::steady_clock::now();
  source_.build(static_cast<std::size_t>(n_), pool_);
  for (graph::NodeIndex v = 0; v < n_; ++v) {
    const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
    const std::span<const Colour> row(csr.port_colour.data() + begin,
                                      static_cast<std::size_t>(csr.degree(v)));
    if (pool_[static_cast<std::size_t>(v)]->init(row) && cp == nullptr) {
      state_.halt(v, 0, pool_);
    }
  }
  if (cp != nullptr) state_.resume(*cp, pool_);
  state_.result.init_ns = build_ns_ + phase_elapsed_ns(init_start);

  // Everything the rounds need is built lazily: a 0-round algorithm on a
  // million nodes never pays for the message plane (or the worker pool).
  planes_ready_ = false;
  stats_.assign(static_cast<std::size_t>(workers_), MessageStats{});
  departures_.assign(static_cast<std::size_t>(workers_), {});
  for (std::vector<graph::NodeIndex>& bucket : wake_) bucket.clear();
  asleep_ = 0;
  asleep_messages_ = 0;
  asleep_bytes_ = 0;
}

RunResult FlatEngine::run(const FaultOptions& faults, const CheckpointOptions& checkpoint) {
  begin(RunOptions{max_rounds_, faults, checkpoint});
  while (!done()) step();
  return result();
}

void FlatEngine::begin(const RunOptions& options) {
  state_.configure(options);
  // Faulty runs never sleep: the drop pass and crash and restart events
  // would have to wake nodes.
  faulty_ = state_.plan != nullptr;
  drop_mask_ = faulty_ && state_.plan->has_drops();
  if (options.checkpoint.resume != nullptr) restore(*options.checkpoint.resume);
  if (!primed_) initialise(nullptr);
  primed_ = false;
}

void FlatEngine::step() {
  const int round = state_.begin_round();
  step_round(round);
  state_.end_round(round, pool_, stats_);
}

void FlatEngine::step_round(int round) {
  // Borrow the runtime for the WHOLE step, not per phase: a shared
  // runtime's spill arenas serve every session on it, and a payload
  // spilled in the send phase is read in this step's receive phase —
  // another session's step in between would clear it.  (A private
  // runtime's lock is never contended.)
  const std::lock_guard<std::mutex> borrow(runtime_->mutex());
  const graph::Csr& csr = *csr_;
  round_now_ = round;
  if (!planes_ready_) {
    plane_->configure(csr.slot_count(), static_cast<std::size_t>(n_));
    // The live list starts from whatever the run begins with: round-0
    // halts, or every flag a restored checkpoint carries.
    live_.clear();
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (!state_.halted[static_cast<std::size_t>(v)] &&
          !state_.dead[static_cast<std::size_t>(v)]) {
        live_.push_back(v);
      }
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
  if (round > 1 && stamp == 1) wipe_live_rows();
  FlatPlane& plane = *plane_;
  plane.new_round();

  // Phase 1: running nodes stream this round's messages into their own
  // slot rows (or their broadcast slot); down nodes send nothing.  A chunk
  // (contiguous node range) is claimed by exactly one worker per phase, so
  // no two workers ever touch the same slot.  A sleeper's broadcast stands
  // in its slot already; it is counted here, one message per port, as its
  // send would have counted it (its length is in max_bytes since then).
  const auto send_start = std::chrono::steady_clock::now();
  if (asleep_ > 0) {
    stats_[0].sent += asleep_messages_;
    stats_[0].total_bytes += asleep_bytes_;
  }
  for_chunks([&](int worker, graph::NodeIndex begin, graph::NodeIndex end) {
    Outbox out;
    out.plane_ = &plane;
    out.arena_ = static_cast<std::uint8_t>(worker);
    out.stats_ = &stats_[static_cast<std::size_t>(worker)];
    out.stamp_ = stamp;
    for (const graph::NodeIndex v : live_in(begin, end)) {
      if (state_.down[static_cast<std::size_t>(v)]) continue;
      out.base_ = csr.row[static_cast<std::size_t>(v)];
      out.node_ = static_cast<std::size_t>(v);
      out.colours_ = csr.port_colour.data() + out.base_;
      out.count_ = csr.degree(v);
      out.written_ = 0;
      pool_[static_cast<std::size_t>(v)]->send(round, out);
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
    for (const graph::NodeIndex u : live_) {
      if (state_.down[static_cast<std::size_t>(u)]) continue;
      const bool broadcast = plane.broadcast[static_cast<std::size_t>(u)].stamp == stamp;
      const std::size_t begin = csr.row[static_cast<std::size_t>(u)];
      const std::size_t end = csr.row[static_cast<std::size_t>(u) + 1];
      for (std::size_t s = begin; s < end; ++s) {
        if (!broadcast && plane.slots[s].stamp != stamp) continue;
        const graph::NodeIndex r = csr.peer_node[s];
        if (state_.halted[static_cast<std::size_t>(r)] ||
            state_.down[static_cast<std::size_t>(r)]) {
          continue;
        }
        if (state_.plan->drops(round, u, csr.port_colour[s])) ++state_.result.messages_dropped;
      }
    }
  }
  state_.result.send_ns += phase_elapsed_ns(send_start);

  const auto receive_start = std::chrono::steady_clock::now();
  // Phase 2: hand each running node a lazy view over its peers' slots,
  // reflecting the start-of-round halted state (a node halting this
  // round must not leak its decision to same-round receivers).  New
  // halts and sleeps are collected per worker and applied after the
  // barrier.  A node may sleep only when this round's send was one inline
  // broadcast: that slot is what its neighbours read while it sleeps.
  for_chunks([&](int worker, graph::NodeIndex begin, graph::NodeIndex end) {
    for (const graph::NodeIndex v : live_in(begin, end)) {
      if (state_.down[static_cast<std::size_t>(v)]) continue;
      const std::size_t row = csr.row[static_cast<std::size_t>(v)];
      Inbox in;
      in.engine_ = this;
      in.plane_ = &plane;
      in.colours_ = csr.port_colour.data() + row;
      in.row_ = row;
      in.count_ = csr.degree(v);
      in.stamp_ = stamp;
      NodeProgram& program = *pool_[static_cast<std::size_t>(v)];
      std::vector<Departure>& departures = departures_[static_cast<std::size_t>(worker)];
      if (program.receive(round, in)) {
        departures.push_back({v, 0});
      } else if (!faulty_) {
        // The program is in cache; its broadcast slot may not be, so the
        // slot is read only for a sleep worth taking.
        const int wake = program.next_active_round(round);
        if (wake - round - 1 >= kMinSkippedRounds &&
            plane.broadcast[static_cast<std::size_t>(v)].stamp == stamp) {
          departures.push_back({v, wake});
        }
      }
    }
  });
  if (kCheckSleepers && asleep_ > 0) check_sleepers(round, stamp);

  for (auto& batch : departures_) {
    for (const Departure& d : batch) {
      if (d.wake == 0) {
        state_.halt(d.node, round, pool_);
      } else {
        sleep(d.node, d.wake, round);
      }
    }
    batch.clear();
  }
  // The running count is exactly the nodes neither halted nor dead
  // (restored checkpoints are checked for it), and the awake ones are the
  // live list, so a size mismatch means this round's halts, sleeps or
  // permanent crashes left nodes to drop.
  if (live_.size() + asleep_ != static_cast<std::size_t>(state_.running)) {
    const bool sleeping = asleep_ > 0;
    std::erase_if(live_, [&](graph::NodeIndex v) {
      const auto i = static_cast<std::size_t>(v);
      return state_.halted[i] || state_.dead[i] ||
             (sleeping && (plane_->broadcast[i].len & kSleepingLen) != 0);
    });
  }
  if (asleep_ > 0) wake_for(round + 1);
  state_.result.receive_ns += phase_elapsed_ns(receive_start);
}

/// Takes `v` off the live list until round `wake` (cut to the wheel).  Its
/// broadcast slot, stamped this round, keeps serving neighbours under the
/// sleeping bit, and its messages join the running sums.
void FlatEngine::sleep(graph::NodeIndex v, int wake, int round) {
  if (wake_.empty()) wake_.resize(kWakeWheel);
  if (wake - round >= kWakeWheel) wake = round + kWakeWheel - 1;
  wake_[static_cast<std::size_t>(wake % kWakeWheel)].push_back(v);
  FlatSlot& slot = plane_->broadcast[static_cast<std::size_t>(v)];
  const auto degree = static_cast<std::size_t>(csr_->degree(v));
  ++asleep_;
  asleep_messages_ += degree;
  asleep_bytes_ += degree * slot.len;
  slot.len |= kSleepingLen;
}

/// Merges the nodes waking in `round` back into the live list, which stays
/// sorted (chunks slice it by node range, and a serial run walks memory in
/// order), and takes them out of the running sums.  Their broadcast slots
/// are cleared: from this round on they send again, and neither the
/// sleeping bit nor a stale stamp may pass for a message.
void FlatEngine::wake_for(int round) {
  std::vector<graph::NodeIndex>& bucket = wake_[static_cast<std::size_t>(round % kWakeWheel)];
  for (const graph::NodeIndex v : bucket) {
    FlatSlot& slot = plane_->broadcast[static_cast<std::size_t>(v)];
    const auto degree = static_cast<std::size_t>(csr_->degree(v));
    asleep_messages_ -= degree;
    asleep_bytes_ -= degree * (slot.len & ~kSleepingLen);
    slot = FlatSlot{};
  }
  asleep_ -= bucket.size();
  const auto awake = static_cast<std::ptrdiff_t>(live_.size());
  live_.insert(live_.end(), bucket.begin(), bucket.end());
  bucket.clear();
  std::sort(live_.begin() + awake, live_.end());
  std::inplace_merge(live_.begin(), live_.begin() + awake, live_.end());
}

/// The contract check of builds without NDEBUG: every sleeper is stepped
/// as if awake — send into scratch slots, then receive over the plane —
/// and must write its sleeping broadcast on every port, not halt, and
/// leave its save_state bytes alone (when it has the checkpoint hooks).
/// Workers split the wheel's buckets, so a threaded run checks in parallel.
void FlatEngine::check_sleepers(int round, std::uint8_t stamp) {
  const graph::Csr& csr = *csr_;
  const auto saved = [](const NodeProgram& program, std::string& out) {
    out.clear();
    try {
      program.save_state(out);
      return true;
    } catch (const std::logic_error&) {
      return false;  // no checkpoint hooks: nothing to compare
    }
  };
  const auto fail = [&](graph::NodeIndex v, const char* what) {
    throw std::logic_error("FlatEngine: node " + std::to_string(v) + " asleep in round " +
                           std::to_string(round) + " " + what +
                           " (NodeProgram::next_active_round contract)");
  };
  const auto check = [&](int worker) {
    std::vector<PortSlot> slots;
    std::string bytes;
    std::string before;
    std::string after;
    MessageStats scratch;
    for (auto b = static_cast<std::size_t>(worker); b < wake_.size();
         b += static_cast<std::size_t>(workers_)) {
      for (const graph::NodeIndex v : wake_[b]) {
        NodeProgram& program = *pool_[static_cast<std::size_t>(v)];
        const FlatSlot& sleeping = plane_->broadcast[static_cast<std::size_t>(v)];
        const std::string_view said(sleeping.payload, sleeping.len & ~kSleepingLen);
        const std::size_t row = csr.row[static_cast<std::size_t>(v)];
        const std::span<const Colour> colours(csr.port_colour.data() + row,
                                              static_cast<std::size_t>(csr.degree(v)));
        const bool stateful = saved(program, before);
        slots.assign(colours.size(), PortSlot{});
        bytes.clear();
        Outbox out(colours, slots.data(), bytes, round, scratch);
        program.send(round, out);
        for (const PortSlot& slot : slots) {
          if (slot.round != round ||
              std::string_view(bytes).substr(slot.offset, slot.len) != said) {
            fail(v, "sent other bytes than its sleeping broadcast");
          }
        }
        Inbox in;
        in.engine_ = this;
        in.plane_ = plane_.get();
        in.colours_ = colours.data();
        in.row_ = row;
        in.count_ = static_cast<int>(colours.size());
        in.stamp_ = stamp;
        if (program.receive(round, in)) fail(v, "halted");
        if (stateful && (!saved(program, after) || after != before)) {
          fail(v, "changed its saved state");
        }
      }
    }
  };
  if (workers_ == 1) {
    check(0);
    return;
  }
  // The send phase already ran on the pool this round, so it exists; a
  // shared pool may carry more workers than this engine uses.
  auto phase = [&](int worker) {
    if (worker < workers_) check(worker);
  };
  runtime_->pool()->run(phase);
}

RunResult FlatEngine::result() { return state_.finish(stats_); }

EngineCheckpoint FlatEngine::snapshot() const { return state_.capture(pool_, stats_); }

void FlatEngine::checkpoint(std::ostream& out) const { snapshot().write(out); }

void FlatEngine::restore(const EngineCheckpoint& cp) {
  primed_ = false;  // a rejected checkpoint leaves the engine unprimed
  initialise(&cp);
  primed_ = true;
}

void FlatEngine::restore(std::istream& in) { restore(EngineCheckpoint::read(in)); }

std::string_view FlatEngine::resolve(const FlatPlane& plane, std::size_t s,
                                     std::uint8_t stamp) const noexcept {
  const graph::Csr& csr = *csr_;
  const graph::NodeIndex u = csr.peer_node[s];
  if (state_.halted[static_cast<std::size_t>(u)]) {
    const Announcement& a = kAnnouncements[state_.result.outputs[static_cast<std::size_t>(u)]];
    return {a.bytes, a.len};
  }
  // A down (or dead) sender reads as absent on the shared edge.
  if (faulty_ && state_.down[static_cast<std::size_t>(u)]) return {};
  std::string_view view;
  const FlatSlot& shared = plane.broadcast[static_cast<std::size_t>(u)];
  if (shared.stamp == stamp || (shared.len & kSleepingLen) != 0) {
    view = {shared.payload, static_cast<std::size_t>(shared.len & ~kSleepingLen)};
  } else {
    const std::size_t u_row = csr.row[static_cast<std::size_t>(u)];
    const std::size_t u_end = csr.row[static_cast<std::size_t>(u) + 1];
    const auto begin = csr.port_colour.begin() + static_cast<std::ptrdiff_t>(u_row);
    const auto end = csr.port_colour.begin() + static_cast<std::ptrdiff_t>(u_end);
    const auto it = std::lower_bound(begin, end, csr.port_colour[s]);
    view = slot_view(plane, u_row + static_cast<std::size_t>(it - begin), stamp);
  }
  // Drop masking: a message the sender actually wrote this round reads as
  // absent when the (round, sender, colour) hash says drop.  Counting
  // happened in the serial pass of step_round; this is delivery only.
  if (drop_mask_ && !view.empty() && state_.plan->drops(round_now_, u, csr.port_colour[s])) {
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
  // Outbox::set; the offset expands into a 64-bit cursor.
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

/// The tag cycle restarted: every stamp value is about to be reused, so
/// stale slots must be cleared — but only the port rows and broadcast
/// slots of live senders, and the port rows of sleepers.  A halted node
/// never writes again and resolve() serves its announcement from the table
/// without reading its slots; a dead node never writes again and reads as
/// absent.  Down rows are wiped too: a down node may restart mid-cycle and
/// leave unwritten ports whose stale stamps must never alias a fresh tag
/// (pinned by the two-tag-cycle cases in tests/test_flat_stress.cpp).  A
/// sleeper's broadcast slot is still being served and is cleared when it
/// wakes, but a woken node that writes single ports must not find old
/// stamps in its row either.
void FlatEngine::wipe_live_rows() {
  const graph::Csr& csr = *csr_;
  const auto wipe_ports = [&](graph::NodeIndex v) {
    const std::size_t begin = csr.row[static_cast<std::size_t>(v)];
    const std::size_t end = csr.row[static_cast<std::size_t>(v) + 1];
    std::fill(plane_->slots.begin() + static_cast<std::ptrdiff_t>(begin),
              plane_->slots.begin() + static_cast<std::ptrdiff_t>(end), FlatSlot{});
  };
  for (const graph::NodeIndex v : live_) {
    wipe_ports(v);
    plane_->broadcast[static_cast<std::size_t>(v)] = FlatSlot{};
  }
  for (const std::vector<graph::NodeIndex>& bucket : wake_) {
    for (const graph::NodeIndex v : bucket) wipe_ports(v);
  }
}

/// The slice of the live list inside chunk [begin, end); the serial
/// fn(0, 0, n) call gets the whole list.
std::span<const graph::NodeIndex> FlatEngine::live_in(graph::NodeIndex begin,
                                                      graph::NodeIndex end) const noexcept {
  const auto first = std::lower_bound(live_.begin(), live_.end(), begin);
  const auto last = std::lower_bound(first, live_.end(), end);
  return {first, last};
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
  // Lazy pool spawn: exactly one run's call creates the threads and
  // counts them in its threads_spawned gauge; every other run on the same
  // runtime adds 0, so the sum over its runs stays threads - 1.
  state_.result.threads_spawned += runtime_->ensure_pool();
  runtime_->pool()->run(phase);
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

std::string_view Inbox::at(int port) const {
  if (port < 0 || port >= count_) {
    throw std::out_of_range("Inbox::at: port out of range");
  }
  if (messages_ != nullptr) return messages_[port];
  return engine_->resolve(*plane_, flat_slot(row_, port), stamp_);
}

bool sleep_contract_checked() noexcept { return kCheckSleepers; }

RunResult run_flat(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options, const FlatEngineOptions& engine_options) {
  return FlatEngine(g, source, options.max_rounds, engine_options)
      .run(options.faults, options.checkpoint);
}

}  // namespace dmm::local
