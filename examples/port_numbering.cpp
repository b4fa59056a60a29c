// §1.4: the lower bound covers the port-numbering model.  This example
// shows both directions of the relationship:
//
//   * the edge-coloured greedy runs unchanged in the PN model (colours as
//     local inputs, ports on the wire) — and it is even a *broadcast*
//     algorithm, the weakest variant the paper mentions;
//   * without colours, deterministic PN algorithms are helpless on
//     symmetric instances: on the consistently port-numbered cycle, every
//     algorithm's outputs are uniform and uniform outputs are never a
//     valid maximal matching.
//
//   $ ./examples/port_numbering
#include <iostream>

#include "core/dmm.hpp"

namespace {

/// A PN algorithm that tries hard: exchange degrees for a round, then
/// match the smallest port towards a neighbour that also proposed us.
class Handshake final : public dmm::pn::PnProgram {
 public:
  bool init(int degree) override {
    degree_ = degree;
    return degree_ == 0;
  }
  std::map<dmm::pn::Port, dmm::pn::Message> send(int) override {
    std::map<dmm::pn::Port, dmm::pn::Message> out;
    for (dmm::pn::Port p = 1; p <= degree_; ++p) {
      out[p] = p == 1 ? "propose" : "idle";
    }
    return out;
  }
  bool receive(int, const std::map<dmm::pn::Port, dmm::pn::Message>& inbox) override {
    // Accept if our port-1 partner also proposed on the shared edge.
    const auto it = inbox.find(1);
    matched_ = it != inbox.end() && it->second == "propose";
    return true;
  }
  dmm::pn::PnOutput output() const override { return matched_ ? 1 : dmm::pn::kPnUnmatched; }

 private:
  int degree_ = 0;
  bool matched_ = false;
};

}  // namespace

int main() {
  using namespace dmm;

  std::cout << "== direction 1: coloured greedy inside the PN model ==\n";
  const graph::EdgeColouredGraph g = graph::figure1_graph();
  const pn::PnGreedyResult via_pn = pn::greedy_via_pn(g);
  const local::RunResult direct = local::run_sync(g, algo::greedy_program_factory(), {g.k() + 1});
  std::cout << "figure-1 graph: PN rounds = " << via_pn.rounds
            << ", coloured rounds = " << direct.rounds << ", outputs "
            << (via_pn.outputs == direct.outputs ? "identical" : "DIFFER (bug)")
            << "\n(greedy passed the engine's broadcast check: one message fits all ports)\n\n";

  std::cout << "== direction 2: symmetry defeats pure PN algorithms ==\n";
  for (int n : {4, 5, 8, 13}) {
    const pn::PortNetwork cycle = pn::PortNetwork::symmetric_cycle(n);
    const pn::PnRunResult run =
        pn::run_pn(cycle, [] { return std::make_unique<Handshake>(); }, 10);
    const bool valid = pn::pn_matching_valid(cycle, run.outputs);
    std::cout << "symmetric " << n << "-cycle: outputs uniform="
              << (run.uniform_throughout ? "yes" : "no") << ", valid maximal matching="
              << (valid ? "YES (bug?)" : "no") << "\n";
  }
  std::cout << "\nEvery deterministic PN algorithm stays uniform on these instances, and\n"
               "uniform outputs cannot encode a maximal matching — which is why the paper\n"
               "equips nodes with an edge colouring before asking the lower-bound question.\n";
  return 0;
}
