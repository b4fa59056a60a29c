// The port-numbering model (§1.4): structure, engine, the classical
// symmetry impossibility on transitive instances, and the reduction from
// the edge-coloured model.
#include "pn/adapter.hpp"

#include <gtest/gtest.h>

#include "algo/bipartite_matching.hpp"
#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "verify/matching.hpp"

namespace dmm::pn {
namespace {

TEST(PortNetwork, ConnectAndEndpoints) {
  PortNetwork net(3);
  net.connect(0, 1, 1, 1);
  net.connect(1, 2, 2, 1);
  EXPECT_TRUE(net.is_valid());
  EXPECT_EQ(net.degree(1), 2);
  EXPECT_EQ(net.endpoint(0, 1).node, 1);
  EXPECT_EQ(net.endpoint(0, 1).port, 1);
  EXPECT_EQ(net.endpoint(1, 2).node, 2);
  EXPECT_THROW(net.endpoint(0, 2), std::invalid_argument);
  EXPECT_THROW(net.connect(0, 1, 2, 2), std::logic_error);  // port reuse
}

TEST(PortNetwork, GapInNumberingIsInvalid) {
  PortNetwork net(2);
  net.connect(0, 2, 1, 1);  // port 1 at node 0 left open
  EXPECT_FALSE(net.is_valid());
}

TEST(PortNetwork, FromColouredPreservesAdjacency) {
  const graph::EdgeColouredGraph g = graph::figure1_graph();
  const PortNetwork net = PortNetwork::from_coloured(g);
  EXPECT_TRUE(net.is_valid());
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(net.degree(v), g.degree(v));
    const auto colours = g.incident_colours(v);
    for (Port p = 1; p <= net.degree(v); ++p) {
      // Port p of v corresponds to the p-th smallest incident colour.
      const auto e = net.endpoint(v, p);
      EXPECT_EQ(e.node, *g.neighbour(v, colours[static_cast<std::size_t>(p - 1)]));
    }
  }
}

TEST(PortNetwork, SymmetricCycleShape) {
  const PortNetwork net = PortNetwork::symmetric_cycle(5);
  EXPECT_TRUE(net.is_valid());
  for (NodeIndex v = 0; v < 5; ++v) {
    EXPECT_EQ(net.degree(v), 2);
    EXPECT_EQ(net.endpoint(v, 1).node, (v + 1) % 5);
    EXPECT_EQ(net.endpoint(v, 1).port, 2);
  }
}

/// "Match along port 1 after one round" — a natural but doomed PN guess.
class MatchPortOne final : public PnProgram {
 public:
  bool init(int degree) override {
    degree_ = degree;
    return degree_ == 0;
  }
  std::map<Port, Message> send(int) override {
    std::map<Port, Message> out;
    for (Port p = 1; p <= degree_; ++p) out[p] = "hi";
    return out;
  }
  bool receive(int, const std::map<Port, Message>&) override { return true; }
  PnOutput output() const override { return degree_ >= 1 ? 1 : kPnUnmatched; }

 private:
  int degree_ = 0;
};

/// Never matches anyone.
class AllBottom final : public PnProgram {
 public:
  bool init(int) override { return true; }
  std::map<Port, Message> send(int) override { return {}; }
  bool receive(int, const std::map<Port, Message>&) override { return true; }
  PnOutput output() const override { return kPnUnmatched; }
};

TEST(PnEngine, SymmetryImpossibilityOnCycles) {
  // §1.4: no deterministic PN algorithm finds a maximal matching on the
  // symmetric cycle — uniform outputs are either inconsistent or empty.
  for (int n : {4, 5, 8}) {
    EXPECT_TRUE(pn_symmetry_defeats([] { return std::make_unique<MatchPortOne>(); }, n, 10));
    EXPECT_TRUE(pn_symmetry_defeats([] { return std::make_unique<AllBottom>(); }, n, 10));
  }
}

TEST(PnEngine, UniformityDetected) {
  const PortNetwork net = PortNetwork::symmetric_cycle(6);
  const PnRunResult run = run_pn(net, [] { return std::make_unique<MatchPortOne>(); }, 10);
  EXPECT_TRUE(run.uniform_throughout);
  // Everyone matched "their" port 1: pairwise inconsistent.
  EXPECT_FALSE(pn_matching_valid(net, run.outputs));
}

TEST(PnEngine, ValidityChecker) {
  // A 2-node network matched through its single edge: valid.
  PortNetwork net(2);
  net.connect(0, 1, 1, 1);
  EXPECT_TRUE(pn_matching_valid(net, {1, 1}));
  EXPECT_FALSE(pn_matching_valid(net, {1, kPnUnmatched}));  // (M2)
  EXPECT_FALSE(pn_matching_valid(net, {kPnUnmatched, kPnUnmatched}));  // (M3)
  EXPECT_FALSE(pn_matching_valid(net, {2, 1}));  // (M1): no port 2
}

TEST(Adapter, GreedyThroughPnMatchesColouredEngine) {
  // The reduction: greedy runs unchanged in the PN model when colours are
  // provided as local inputs; outputs and round counts agree.
  Rng rng(811);
  for (int trial = 0; trial < 15; ++trial) {
    const int k = static_cast<int>(rng.uniform(2, 6));
    const graph::EdgeColouredGraph g =
        graph::random_coloured_graph(static_cast<int>(rng.uniform(2, 40)), k, 0.8, rng);
    const PnGreedyResult via_pn = greedy_via_pn(g);
    const local::RunResult direct = local::run_sync(g, algo::greedy_program_factory(), {k + 1});
    EXPECT_EQ(via_pn.outputs, direct.outputs);
    EXPECT_EQ(via_pn.rounds, direct.rounds);
  }
}

TEST(Adapter, GreedyIsABroadcastAlgorithm) {
  // run_pn(broadcast=true) throws on port-dependent messages; greedy_via_pn
  // enables that enforcement, so completing at all is the assertion.
  const graph::EdgeColouredGraph g = graph::worst_case_chain(5).long_path;
  const PnGreedyResult r = greedy_via_pn(g);
  EXPECT_TRUE(verify::check_outputs(g, r.outputs).ok());
  EXPECT_EQ(r.rounds, 4);
}

TEST(ProposalPn, ValidMaximalMatchingOnBipartiteInstances) {
  // The [6] proposal algorithm as a *native* PN program: side bit in,
  // ports on the wire, maximal matching out.
  Rng rng(831);
  for (int trial = 0; trial < 20; ++trial) {
    const int nl = static_cast<int>(rng.uniform(1, 15));
    const int nr = static_cast<int>(rng.uniform(1, 15));
    const graph::EdgeColouredGraph g =
        algo::random_bipartite(nl, nr, static_cast<int>(rng.uniform(1, 6)), 0.8, rng);
    std::vector<bool> white(static_cast<std::size_t>(g.node_count()), false);
    for (int i = 0; i < nl; ++i) white[static_cast<std::size_t>(i)] = true;
    const PnProposalResult r = proposal_via_pn(g, white);
    const verify::MatchingReport report = verify::check_outputs(g, r.outputs);
    EXPECT_TRUE(report.ok()) << report.describe();
    EXPECT_LE(r.rounds, 2 * g.max_degree() + 2);
  }
}

TEST(ProposalPn, CompleteBipartitePerfect) {
  for (int d = 1; d <= 5; ++d) {
    const graph::EdgeColouredGraph g = graph::complete_bipartite(d);
    std::vector<bool> white(static_cast<std::size_t>(2 * d), false);
    for (int i = 0; i < d; ++i) white[static_cast<std::size_t>(i)] = true;
    const PnProposalResult r = proposal_via_pn(g, white);
    EXPECT_TRUE(verify::check_outputs(g, r.outputs).ok());
    for (gk::Colour c : r.outputs) EXPECT_NE(c, local::kUnmatched);
  }
}

TEST(ProposalPn, MatchesCentralisedVariantInSize) {
  // The PN realisation and the centralised reference may differ in the
  // exact matching (ports vs colours tie-breaks coincide here by
  // construction: ports are in colour order), so compare matched-set size
  // and validity.
  Rng rng(839);
  const graph::EdgeColouredGraph g = algo::random_bipartite(12, 12, 5, 0.9, rng);
  std::vector<bool> white(static_cast<std::size_t>(g.node_count()), false);
  for (int i = 0; i < 12; ++i) white[static_cast<std::size_t>(i)] = true;
  const PnProposalResult via_pn = proposal_via_pn(g, white);
  const algo::BipartiteMatchingResult central = algo::bipartite_proposal_matching(g, white);
  EXPECT_TRUE(verify::check_outputs(g, via_pn.outputs).ok());
  EXPECT_TRUE(verify::check_outputs(g, central.outputs).ok());
  EXPECT_EQ(verify::matched_edges(g, via_pn.outputs).size(),
            verify::matched_edges(g, central.outputs).size());
}

TEST(Adapter, OutputColoursAreValidMatchings) {
  Rng rng(821);
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(50, 5, 0.8, rng);
  const PnGreedyResult r = greedy_via_pn(g);
  EXPECT_TRUE(verify::check_outputs(g, r.outputs).ok());
}

}  // namespace
}  // namespace dmm::pn
