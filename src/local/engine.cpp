#include "local/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <stdexcept>

#include "local/faults.hpp"
#include "local/flat_engine.hpp"
#include "local/run_state.hpp"

namespace dmm::local {

void NodeProgram::save_state(std::string& /*out*/) const {
  throw std::logic_error(
      "NodeProgram::save_state: this program does not support checkpointing");
}

void NodeProgram::load_state(std::string_view /*in*/) {
  throw std::logic_error(
      "NodeProgram::load_state: this program does not support checkpointing");
}

void ProgramSource::build(std::size_t count, ProgramPool& pool) const {
  if (fill_ == nullptr) throw std::logic_error("ProgramSource: empty source");
  fill_(make_.get(), count, pool);
}

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

/// run_sync's view of the graph: node v's ports are the entries
/// [row[v], row[v + 1]) in ascending colour order, like the flat engine's
/// CSR, but built here from the adjacency by code of its own, so the
/// flat-vs-sync suites keep checking the CSR build.  Each row is sorted in
/// a copy: the adjacency keeps its order, which churn's swap-pop deletes
/// rely on.
struct PortTable {
  std::vector<std::size_t> row{0};     // n + 1 offsets
  std::vector<Colour> colour;          // per port
  std::vector<graph::NodeIndex> peer;  // the node at the other end
  std::vector<std::size_t> back;       // the peer's port on the same edge

  PortTable() = default;
  explicit PortTable(const graph::EdgeColouredGraph& g) {
    const auto by_colour = [](const graph::HalfEdge& a, const graph::HalfEdge& b) {
      return a.colour < b.colour;
    };
    std::vector<graph::HalfEdge> sorted;
    for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
      const std::span<const graph::HalfEdge> halves = g.half_edges(v);
      sorted.assign(halves.begin(), halves.end());
      std::sort(sorted.begin(), sorted.end(), by_colour);
      for (const graph::HalfEdge& h : sorted) {
        colour.push_back(h.colour);
        peer.push_back(h.to);
      }
      row.push_back(colour.size());
    }
    // An edge has one colour, so it sits at that colour in the peer's row.
    back.resize(colour.size());
    for (std::size_t p = 0; p < colour.size(); ++p) {
      const auto u = static_cast<std::size_t>(peer[p]);
      const auto first = colour.begin() + static_cast<std::ptrdiff_t>(row[u]);
      const auto last = colour.begin() + static_cast<std::ptrdiff_t>(row[u + 1]);
      back[p] = static_cast<std::size_t>(std::lower_bound(first, last, colour[p]) - colour.begin());
    }
  }

  std::span<const Colour> colours(graph::NodeIndex v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return {colour.data() + row[i], row[i + 1] - row[i]};
  }
};

/// run_sync, stepwise.  The constructor is the setup phase (port table,
/// program construction, init delivery, checkpoint resume); step() is one
/// round.  run_sync itself is a thin loop over this class, so a stepped
/// run is the closed run.  The run-state bookkeeping (faults, halts,
/// checkpoints) is the flat engine's too (run_state.hpp); message delivery
/// is this class's own.
class SyncSession final : public Session {
 public:
  SyncSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
              const RunOptions& options)
      : n_(g.node_count()), state_(g, EngineKind::kSync) {
    state_.configure(options);
    state_.reset();
    // Setup phase (timed into init_ns): the port table and slots, then
    // build the programs into the pool and deliver each node its
    // initial knowledge — its row of the port table, alive for the whole
    // run.  On a resume init still runs on every node — it hands each
    // program its initial knowledge, from which graph-shaped state is
    // re-derived — but the round-0 halts it reports are already in the
    // checkpoint.
    const auto init_start = std::chrono::steady_clock::now();
    ports_ = PortTable(g);
    slots_.resize(ports_.colour.size());
    inbox_.resize(static_cast<std::size_t>(g.k()));  // a proper colouring bounds degrees by k
    for (std::size_t output = 0; output < announcements_.size(); ++output) {
      announcements_[output] = std::string(1, kHaltedPrefix) + std::to_string(output);
    }
    const EngineCheckpoint* resume = options.checkpoint.resume;
    source.build(static_cast<std::size_t>(n_), pool_);
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (pool_[static_cast<std::size_t>(v)]->init(ports_.colours(v)) && resume == nullptr) {
        state_.halt(v, 0, pool_);
      }
    }
    if (resume != nullptr) state_.resume(*resume, pool_);
    result_.init_ns = elapsed_ns(init_start);
  }

  bool done() const noexcept override { return state_.done(); }
  int round() const noexcept override { return state_.round; }

  void step() override {
    const int round = state_.begin_round();
    // Phase 1: collect outgoing messages into the nodes' port slots, their
    // bytes into this round's buffer.  Halted nodes re-announce their
    // final output (visible per the paper's output announcement); down
    // and dead nodes send nothing.
    const auto send_start = std::chrono::steady_clock::now();
    bytes_.clear();
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      Outbox out(ports_.colours(v), slots_.data() + ports_.row[static_cast<std::size_t>(v)],
                 bytes_, round, stats_);
      pool_[static_cast<std::size_t>(v)]->send(round, out);
    }
    result_.send_ns += elapsed_ns(send_start);
    // Phase 2: resolve each running node's inbox from the state at the
    // *start* of the round, then deliver it.  A node halting in this round
    // must not leak its decision to same-round receivers — all nodes act
    // simultaneously — so halts are recorded only after every delivery.
    // Down/dead receivers get no inbox; a down/dead sender reads as absent
    // on the shared edge.  Drops hit only messages actually in flight
    // (running sender, running receiver, message present) — halted
    // announcements are environment, not messages, and are never dropped.
    const auto receive_start = std::chrono::steady_clock::now();
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      const std::size_t row = ports_.row[static_cast<std::size_t>(v)];
      const std::span<const Colour> colours = ports_.colours(v);
      for (std::size_t p = 0; p < colours.size(); ++p) {
        const graph::NodeIndex u = ports_.peer[row + p];
        const PortSlot& sent = slots_[ports_.back[row + p]];
        std::string_view& message = inbox_[p];
        if (halted_[static_cast<std::size_t>(u)]) {
          message = announcements_[result_.outputs[static_cast<std::size_t>(u)]];
        } else if (down_[static_cast<std::size_t>(u)] || sent.round != round) {
          message = {};
        } else if (plan_ != nullptr && plan_->drops(round, u, colours[p])) {
          message = {};
          ++result_.messages_dropped;
        } else {
          message = {bytes_.data() + sent.offset, sent.len};
        }
      }
      if (pool_[static_cast<std::size_t>(v)]->receive(round, Inbox(colours, inbox_.data()))) {
        halting_.push_back(v);
      }
    }
    for (const graph::NodeIndex v : halting_) state_.halt(v, round, pool_);
    halting_.clear();
    result_.receive_ns += elapsed_ns(receive_start);
    state_.end_round(round, pool_, {&stats_, 1});
  }

  RunResult result() override { return state_.finish({&stats_, 1}); }

 private:
  int n_;
  PortTable ports_;  // before the pool: programs keep spans into its rows
  std::vector<PortSlot> slots_;  // per port: what its node sent on it
  std::string bytes_;            // the round's payloads, capacity kept
  std::vector<std::string_view> inbox_;  // the receiving node's resolved ports
  std::vector<graph::NodeIndex> halting_;
  std::array<std::string, 256> announcements_;  // per output: kHaltedPrefix, then the output
  MessageStats stats_;  // folded in by end_round/result
  ProgramPool pool_;
  RunState state_;
  // The delivery phases' views of the shared state.
  RunResult& result_ = state_.result;
  const std::vector<char>& halted_ = state_.halted;
  const std::vector<char>& down_ = state_.down;
  const FaultPlan* const& plan_ = state_.plan;
};

}  // namespace

RunResult run_sync(const graph::EdgeColouredGraph& g, const ProgramSource& source,
                   const RunOptions& options) {
  SyncSession session(g, source, options);
  while (!session.done()) session.step();
  return session.result();
}

// The engine-kind dispatchers live beside SyncSession, the one engine
// class without a header of its own.

std::unique_ptr<Session> make_session(EngineKind kind, const graph::EdgeColouredGraph& g,
                                      const ProgramSource& source, const RunOptions& options,
                                      const FlatEngineOptions& engine_options,
                                      Runtime* runtime) {
  if (kind == EngineKind::kSync) return std::make_unique<SyncSession>(g, source, options);
  auto engine =
      std::make_unique<FlatEngine>(g, source, options.max_rounds, engine_options, runtime);
  engine->begin(options);
  return engine;
}

RunResult run(EngineKind kind, const graph::EdgeColouredGraph& g,
              const ProgramSource& source, const RunOptions& options) {
  return kind == EngineKind::kFlat ? run_flat(g, source, options) : run_sync(g, source, options);
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
