#include "pn/adapter.hpp"

#include <stdexcept>

#include "algo/greedy.hpp"

namespace dmm::pn {

ColouredAdapter::ColouredAdapter(std::unique_ptr<local::NodeProgram> inner,
                                 std::vector<gk::Colour> incident)
    : inner_(std::move(inner)), incident_(std::move(incident)) {}

bool ColouredAdapter::init(int degree) {
  if (degree != static_cast<int>(incident_.size())) {
    throw std::logic_error("ColouredAdapter: degree does not match the colour labels");
  }
  slots_.assign(incident_.size(), local::PortSlot{});
  return inner_->init(incident_);
}

std::map<Port, Message> ColouredAdapter::send(int round) {
  bytes_.clear();
  local::Outbox out(incident_, slots_.data(), bytes_, round, stats_);
  inner_->send(round, out);
  std::map<Port, Message> messages;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const local::PortSlot& slot = slots_[i];
    if (slot.round == round) {
      messages.emplace(static_cast<Port>(i + 1), bytes_.substr(slot.offset, slot.len));
    }
  }
  return messages;
}

bool ColouredAdapter::receive(int round, const std::map<Port, Message>& inbox) {
  std::vector<std::string_view> messages(incident_.size());
  for (const auto& [port, msg] : inbox) messages[static_cast<std::size_t>(port - 1)] = msg;
  return inner_->receive(round, local::Inbox(incident_, messages.data()));
}

PnOutput ColouredAdapter::output() const {
  const gk::Colour c = inner_->output();
  if (c == local::kUnmatched) return kPnUnmatched;
  for (std::size_t i = 0; i < incident_.size(); ++i) {
    if (incident_[i] == c) return static_cast<Port>(i + 1);
  }
  throw std::logic_error("ColouredAdapter: output colour not incident");
}

bool ProposalProgram::init(int degree) {
  degree_ = degree;
  return degree_ == 0;  // isolated nodes answer ⊥ immediately
}

std::map<Port, Message> ProposalProgram::send(int round) {
  std::map<Port, Message> out;
  if (white_) {
    // Whites propose on odd rounds, one untried port at a time.
    if (round % 2 == 1 && matched_port_ == kPnUnmatched && pending_proposal_ == 0 &&
        next_proposal_ <= degree_) {
      out[next_proposal_] = "P";
      pending_proposal_ = next_proposal_;
      ++next_proposal_;
    }
  } else {
    // Blacks reply on even rounds: one accept, at most once.
    if (round % 2 == 0 && accepted_someone_ && matched_port_ != kPnUnmatched) {
      out[matched_port_] = "A";
    }
  }
  return out;
}

bool ProposalProgram::receive(int round, const std::map<Port, Message>& inbox) {
  if (white_) {
    if (round % 2 == 0 && pending_proposal_ != 0) {
      const auto it = inbox.find(pending_proposal_);
      if (it != inbox.end() && it->second == "A") {
        matched_port_ = pending_proposal_;
        return true;
      }
      pending_proposal_ = 0;
      if (next_proposal_ > degree_) return true;  // exhausted: ⊥
    }
    return false;
  }
  if (round % 2 == 1) {
    if (!accepted_someone_) {
      Port best = 0;
      bool all_announcements = true;
      for (const auto& [port, msg] : inbox) {
        if (msg == "P" && (best == 0 || port < best)) best = port;
        if (msg.empty() || msg.front() != '!') all_announcements = false;
      }
      if (best != 0) {
        matched_port_ = best;
        accepted_someone_ = true;
      } else if (all_announcements) {
        return true;  // every white neighbour has halted: ⊥ is final
      }
    }
    return false;
  }
  // Even receive: if the accept was sent this round, the handshake is done.
  return accepted_someone_ && matched_port_ != kPnUnmatched;
}

PnProposalResult proposal_via_pn(const graph::EdgeColouredGraph& g,
                                 const std::vector<bool>& white) {
  if (static_cast<int>(white.size()) != g.node_count()) {
    throw std::invalid_argument("proposal_via_pn: side vector size mismatch");
  }
  const PortNetwork net = PortNetwork::from_coloured(g);
  graph::NodeIndex next = 0;
  const PnRunResult run = run_pn(
      net,
      [&]() -> std::unique_ptr<PnProgram> {
        const graph::NodeIndex v = next++;
        return std::make_unique<ProposalProgram>(white[static_cast<std::size_t>(v)]);
      },
      2 * g.max_degree() + 6);
  PnProposalResult result;
  result.rounds = run.rounds;
  result.outputs.assign(static_cast<std::size_t>(g.node_count()), local::kUnmatched);
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    const PnOutput p = run.outputs[static_cast<std::size_t>(v)];
    if (p != kPnUnmatched) {
      result.outputs[static_cast<std::size_t>(v)] =
          g.incident_colours(v)[static_cast<std::size_t>(p - 1)];
    }
  }
  return result;
}

PnGreedyResult greedy_via_pn(const graph::EdgeColouredGraph& g) {
  const PortNetwork net = PortNetwork::from_coloured(g);
  // The factory is called once per node in index order; feed each adapter
  // its node's colour labels.
  graph::NodeIndex next = 0;
  const PnRunResult run = run_pn(
      net,
      [&]() -> std::unique_ptr<PnProgram> {
        const graph::NodeIndex v = next++;
        return std::make_unique<ColouredAdapter>(std::make_unique<algo::GreedyProgram>(),
                                                 g.incident_colours(v));
      },
      g.k() + 1,
      // Greedy's messages carry only the matched/free status, so it is a
      // broadcast algorithm — let the engine enforce that.
      /*broadcast=*/true);
  PnGreedyResult result;
  result.rounds = run.rounds;
  result.outputs.assign(static_cast<std::size_t>(g.node_count()), local::kUnmatched);
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    const PnOutput p = run.outputs[static_cast<std::size_t>(v)];
    if (p != kPnUnmatched) {
      result.outputs[static_cast<std::size_t>(v)] =
          g.incident_colours(v)[static_cast<std::size_t>(p - 1)];
    }
  }
  return result;
}

}  // namespace dmm::pn
