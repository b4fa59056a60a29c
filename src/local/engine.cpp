#include "local/engine.hpp"

#include <chrono>
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

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - since)
                                 .count());
}

/// run_sync, stepwise.  The constructor is the setup phase (program
/// construction, init delivery, checkpoint resume); step() is one round.
/// run_sync itself is a thin loop over this class, so a stepped run is the
/// closed run.  The run-state bookkeeping (faults, halts, checkpoints) is
/// the flat engine's too (run_state.hpp); message delivery is this class's
/// own.
class SyncSession final : public Session {
 public:
  SyncSession(const graph::EdgeColouredGraph& g, const ProgramSource& source,
              const RunOptions& options)
      : g_(g), n_(g.node_count()), state_(g, EngineKind::kSync) {
    state_.configure(options);
    state_.reset();
    // Setup phase (timed into init_ns): batch-construct the programs into
    // the pool, then deliver each node its initial knowledge.  On a resume
    // init still runs on every node — it hands each program its initial
    // knowledge, from which graph-shaped state is re-derived — but the
    // round-0 halts it reports are already in the checkpoint.
    const auto init_start = std::chrono::steady_clock::now();
    const EngineCheckpoint* resume = options.checkpoint.resume;
    pool_.reserve(static_cast<std::size_t>(n_));
    source.build(static_cast<std::size_t>(n_), pool_);
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (pool_[static_cast<std::size_t>(v)]->init(g_.incident_colours(v)) && resume == nullptr) {
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
    // Phase 1: collect outgoing messages.  Halted nodes re-announce their
    // final output (visible per the paper's output announcement); down and
    // dead nodes send nothing.
    const auto send_start = std::chrono::steady_clock::now();
    std::vector<std::map<Colour, Message>> outgoing(static_cast<std::size_t>(n_));
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      outgoing[static_cast<std::size_t>(v)] = pool_[static_cast<std::size_t>(v)]->send(round);
      for (const auto& [colour, message] : outgoing[static_cast<std::size_t>(v)]) {
        result_.max_message_bytes = std::max(result_.max_message_bytes, message.size());
        result_.total_message_bytes += message.size();
        ++result_.messages_sent;
      }
    }
    result_.send_ns += elapsed_ns(send_start);
    // Phase 2: build every inbox from the state at the *start* of the
    // round, then deliver.  A node halting in this round must not leak its
    // decision to same-round receivers — all nodes act simultaneously.
    // Down/dead receivers get no inbox; a down/dead sender reads as absent
    // on the shared edge.  Drops hit only messages actually in flight
    // (running sender, running receiver, message present) — halted
    // announcements are environment, not messages, and are never dropped.
    const auto receive_start = std::chrono::steady_clock::now();
    std::vector<std::map<Colour, Message>> inboxes(static_cast<std::size_t>(n_));
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      for (Colour c : g_.incident_colours(v)) {
        const graph::NodeIndex u = *g_.neighbour(v, c);
        if (halted_[static_cast<std::size_t>(u)]) {
          inboxes[static_cast<std::size_t>(v)][c] =
              std::string(1, kHaltedPrefix) +
              std::to_string(static_cast<int>(result_.outputs[static_cast<std::size_t>(u)]));
        } else if (down_[static_cast<std::size_t>(u)]) {
          inboxes[static_cast<std::size_t>(v)][c] = Message{};
        } else {
          auto it = outgoing[static_cast<std::size_t>(u)].find(c);
          if (it == outgoing[static_cast<std::size_t>(u)].end()) {
            inboxes[static_cast<std::size_t>(v)][c] = Message{};
          } else if (plan_ != nullptr && plan_->drops(round, u, c)) {
            inboxes[static_cast<std::size_t>(v)][c] = Message{};
            ++result_.messages_dropped;
          } else {
            inboxes[static_cast<std::size_t>(v)][c] = it->second;
          }
        }
      }
    }
    for (graph::NodeIndex v = 0; v < n_; ++v) {
      if (halted_[static_cast<std::size_t>(v)] || down_[static_cast<std::size_t>(v)]) continue;
      if (pool_[static_cast<std::size_t>(v)]->receive(round,
                                                      inboxes[static_cast<std::size_t>(v)])) {
        state_.halt(v, round, pool_);
      }
    }
    result_.receive_ns += elapsed_ns(receive_start);
    state_.end_round(round, pool_, {});
  }

  RunResult result() override { return state_.finish({}); }

 private:
  const graph::EdgeColouredGraph& g_;
  int n_;
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
