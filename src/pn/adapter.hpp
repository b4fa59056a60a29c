// Bridge between the edge-coloured model and the PN model.
//
// The edge-coloured model is the PN model plus edge-colour input labels:
// with PortNetwork::from_coloured the ports at each node enumerate the
// incident colours in increasing order, so a coloured NodeProgram can run
// unchanged once each node is told its incident colours.  This is the
// reduction behind §1.4's remark that the paper's lower bound covers the
// port-numbering model and its weaker variants.
#pragma once

#include <memory>

#include "local/engine.hpp"
#include "pn/pn_engine.hpp"

namespace dmm::pn {

/// Runs a coloured-model program as a PN program.  `incident` is the
/// node's input label: its incident colours, sorted — matching the port
/// order of PortNetwork::from_coloured, so the inner program's port p is
/// PN port p + 1.
class ColouredAdapter final : public PnProgram {
 public:
  ColouredAdapter(std::unique_ptr<local::NodeProgram> inner, std::vector<gk::Colour> incident);

  bool init(int degree) override;
  std::map<Port, Message> send(int round) override;
  bool receive(int round, const std::map<Port, Message>& inbox) override;
  PnOutput output() const override;

 private:
  std::unique_ptr<local::NodeProgram> inner_;
  std::vector<gk::Colour> incident_;  // port p <-> incident_[p-1]; the inner init's row
  std::vector<local::PortSlot> slots_;  // the inner program's outbox, one per port
  std::string bytes_;                   // this round's payloads
  local::MessageStats stats_;           // the PN engine keeps no message accounting
};

/// Runs the coloured greedy algorithm on a coloured instance *through the
/// PN engine* (ports only on the wire, colours as local inputs) and
/// returns outputs re-encoded as colours.  Used to cross-validate the two
/// models.
struct PnGreedyResult {
  std::vector<gk::Colour> outputs;
  int rounds = 0;
};
PnGreedyResult greedy_via_pn(const graph::EdgeColouredGraph& g);

/// The bipartite proposal algorithm ([6], §1.1) as a *native* PN program:
/// only the side bit is input, ports are the only structure.  White nodes
/// propose along ports 1, 2, ... one per round; black nodes accept the
/// smallest-ported proposal while free.
class ProposalProgram final : public PnProgram {
 public:
  explicit ProposalProgram(bool white) : white_(white) {}

  bool init(int degree) override;
  std::map<Port, Message> send(int round) override;
  bool receive(int round, const std::map<Port, Message>& inbox) override;
  PnOutput output() const override { return matched_port_; }

 private:
  bool white_;
  int degree_ = 0;
  Port next_proposal_ = 1;
  Port pending_proposal_ = 0;  // white: the port proposed this exchange
  PnOutput matched_port_ = kPnUnmatched;
  bool accepted_someone_ = false;
};

/// Runs ProposalProgram over the PN network of g and re-encodes outputs as
/// colours (for verify::check_outputs).  `white[v]` marks proposers.
struct PnProposalResult {
  std::vector<gk::Colour> outputs;
  int rounds = 0;
};
PnProposalResult proposal_via_pn(const graph::EdgeColouredGraph& g,
                                 const std::vector<bool>& white);

}  // namespace dmm::pn
