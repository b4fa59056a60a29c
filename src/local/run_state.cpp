#include "local/run_state.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "local/checkpoint.hpp"
#include "local/faults.hpp"

namespace dmm::local {

void RunState::configure(const RunOptions& options) {
  plan = (options.faults.plan != nullptr && !options.faults.plan->empty()) ? options.faults.plan
                                                                          : nullptr;
  if (plan != nullptr) plan->require_fits(g.node_count());
  max_rounds = options.max_rounds;
  every = options.checkpoint.every;
  sink = options.checkpoint.sink;
}

void RunState::reset() {
  const auto n = static_cast<std::size_t>(g.node_count());
  result = RunResult{};
  result.outputs.assign(n, kUnmatched);
  result.halt_round.assign(n, -1);
  halted.assign(n, 0);
  down.assign(n, 0);
  dead.assign(n, 0);
  running = g.node_count();
  round = 0;
}

void RunState::resume(const EngineCheckpoint& cp, ProgramPool& pool) {
  cp.require_matches(g);
  const auto n = static_cast<std::size_t>(g.node_count());
  for (std::size_t v = 0; v < n; ++v) {
    result.outputs[v] = cp.outputs[v];
    result.halt_round[v] = cp.halt_round[v];
    halted[v] = static_cast<char>(cp.halted[v]);
    down[v] = static_cast<char>(cp.down[v]);
    dead[v] = static_cast<char>(cp.dead[v]);
  }
  running = cp.running;
  round = cp.round;
  result.crashes = cp.crashes;
  result.restarts = cp.restarts;
  result.messages_dropped = cp.messages_dropped;
  result.max_message_bytes = static_cast<std::size_t>(cp.max_message_bytes);
  result.total_message_bytes = static_cast<std::size_t>(cp.total_message_bytes);
  result.messages_sent = static_cast<std::size_t>(cp.messages_sent);
  std::size_t blob = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (halted[v] || dead[v]) continue;
    pool[v]->load_state(cp.program_state[blob++]);
  }
}

int RunState::begin_round() {
  const int next = round + 1;
  if (next > max_rounds) {
    throw std::runtime_error(std::string("run_") + engine_kind_name(engine) +
                             ": algorithm did not halt within max_rounds");
  }
  // Phase 0: apply this round's fault events before the send phase.  A
  // crash aimed at a halted or dead node is a no-op; a permanent crash
  // removes the node from the run (output stays ⊥, halt_round −1).  Events
  // of earlier rounds — on a resume, everything up to the checkpoint — are
  // already reflected in the flags.
  if (plan == nullptr) return next;
  const std::vector<FaultEvent>& events = plan->events();
  for (std::size_t i = plan->first_event_at(next); i < events.size() && events[i].round == next;
       ++i) {
    const FaultEvent& e = events[i];
    if (e.node < 0 || e.node >= g.node_count()) {
      throw std::invalid_argument("FaultPlan: event targets a node outside the graph");
    }
    const auto v = static_cast<std::size_t>(e.node);
    if (halted[v] || dead[v]) continue;
    if (e.up) {
      if (down[v]) {
        down[v] = 0;
        ++result.restarts;
      }
    } else {
      down[v] = 1;
      ++result.crashes;
      if (e.permanent) {
        dead[v] = 1;
        --running;
      }
    }
  }
  return next;
}

void RunState::end_round(int at_round, const ProgramPool& pool,
                         std::span<const MessageStats> pending) {
  round = at_round;
  if (every > 0 && sink && running > 0 && at_round % every == 0) sink(capture(pool, pending));
}

MessageStats RunState::totals(std::span<const MessageStats> pending) const {
  // Commutative folds, so merged per-worker stats equal run_sync's inline
  // accounting whatever the schedule.
  MessageStats t;
  t.max_bytes = result.max_message_bytes;
  t.total_bytes = result.total_message_bytes;
  t.sent = result.messages_sent;
  for (const MessageStats& s : pending) {
    t.max_bytes = std::max(t.max_bytes, s.max_bytes);
    t.total_bytes += s.total_bytes;
    t.sent += s.sent;
  }
  return t;
}

EngineCheckpoint RunState::capture(const ProgramPool& pool,
                                   std::span<const MessageStats> pending) const {
  EngineCheckpoint cp;
  cp.node_count = g.node_count();
  cp.k = g.k();
  cp.edge_hash = g.fingerprint();
  cp.round = round;
  cp.running = running;
  cp.crashes = result.crashes;
  cp.restarts = result.restarts;
  cp.messages_dropped = result.messages_dropped;
  const MessageStats t = totals(pending);
  cp.max_message_bytes = t.max_bytes;
  cp.total_message_bytes = t.total_bytes;
  cp.messages_sent = t.sent;
  cp.outputs = result.outputs;
  cp.halt_round.assign(result.halt_round.begin(), result.halt_round.end());
  cp.halted.assign(halted.begin(), halted.end());
  cp.down.assign(down.begin(), down.end());
  cp.dead.assign(dead.begin(), dead.end());
  for (std::size_t v = 0; v < halted.size(); ++v) {
    if (halted[v] || dead[v]) continue;
    std::string blob;
    pool[v]->save_state(blob);
    cp.program_state.push_back(std::move(blob));
  }
  return cp;
}

RunResult RunState::finish(std::span<const MessageStats> pending) {
  const MessageStats t = totals(pending);
  result.max_message_bytes = t.max_bytes;
  result.total_message_bytes = t.total_bytes;
  result.messages_sent = t.sent;
  for (int r : result.halt_round) result.rounds = std::max(result.rounds, r);
  return std::move(result);
}

}  // namespace dmm::local
