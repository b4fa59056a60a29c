// The three realisations of the model agree.
//
//   (1) message-passing engine (run_sync + GreedyProgram),
//   (2) view-based execution (run_views + GreedyLocal),
//   (3) template evaluation (Evaluator + realisation balls),
//
// pairwise, on shared instances.
#include <gtest/gtest.h>

#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "local/view_engine.hpp"
#include "lower/realisation.hpp"
#include "verify/matching.hpp"

namespace dmm {
namespace {

TEST(ModelEquivalence, MessagePassingVsViewsOnRandomInstances) {
  Rng rng(601);
  for (int trial = 0; trial < 25; ++trial) {
    const int k = static_cast<int>(rng.uniform(2, 6));
    const graph::EdgeColouredGraph g =
        graph::random_coloured_graph(static_cast<int>(rng.uniform(2, 40)), k, 0.8, rng);
    const local::RunResult mp = local::run_sync(g, algo::greedy_program_factory(), {k + 2});
    const algo::GreedyLocal view_algo(k);
    const std::vector<gk::Colour> by_views = local::run_views(g, view_algo);
    EXPECT_EQ(mp.outputs, by_views) << "k=" << k;
  }
}

TEST(ModelEquivalence, MessagePassingVsViewsOnNamedInstances) {
  const std::vector<std::pair<graph::EdgeColouredGraph, int>> instances = {
      {graph::figure1_graph(), 4},
      {graph::hypercube(4), 4},
      {graph::complete_bipartite(4), 4},
      {graph::alternating_cycle(3, 5, 1, 3), 3},
      {graph::worst_case_chain(6).long_path, 6},
  };
  for (const auto& [g, k] : instances) {
    const local::RunResult mp = local::run_sync(g, algo::greedy_program_factory(), {k + 2});
    const algo::GreedyLocal view_algo(k);
    EXPECT_EQ(mp.outputs, local::run_views(g, view_algo));
  }
}

TEST(ModelEquivalence, TemplateEvaluationVsConcreteSimulation) {
  // Evaluate greedy on a zero-template via realisation balls, then build a
  // large concrete chunk of the realisation as a plain graph, run the
  // message-passing greedy on it, and compare at the centre.
  const int k = 4;
  const algo::GreedyLocal greedy(k);
  lower::Evaluator eval(greedy);
  for (gk::Colour tau = 1; tau <= k; ++tau) {
    const lower::Template zt =
        lower::make_template_unchecked(colsys::ColourSystem(k), {tau}, 0);
    const gk::Colour by_template = eval(zt, colsys::ColourSystem::root());

    // Concrete: the realisation ball of radius k+2 (strictly deeper than
    // greedy's horizon k), as a finite graph; the centre (node 0) sees the
    // same universe greedy can reach.
    const colsys::ColourSystem chunk =
        lower::realisation_ball(zt, colsys::ColourSystem::root(), k + 2);
    const graph::EdgeColouredGraph g = graph::to_graph(chunk);
    const local::RunResult mp = local::run_sync(g, algo::greedy_program_factory(), {k + 2});
    EXPECT_EQ(mp.outputs[0], by_template) << "tau=" << static_cast<int>(tau);
  }
}

TEST(ModelEquivalence, TemplateEvaluationVsViewEngineOnEdgeTemplate) {
  const int k = 4;
  const algo::GreedyLocal greedy(k);
  lower::Evaluator eval(greedy);
  colsys::ColourSystem edge(k);
  edge.add_child(colsys::ColourSystem::root(), 2);
  const lower::Template tmpl(edge, {1, 3}, 1);

  for (colsys::NodeId t = 0; t < tmpl.tree().size(); ++t) {
    const gk::Colour by_template = eval(tmpl, t);
    const colsys::ColourSystem chunk = lower::realisation_ball(tmpl, t, k + 2);
    const graph::EdgeColouredGraph g = graph::to_graph(chunk);
    const local::RunResult mp = local::run_sync(g, algo::greedy_program_factory(), {k + 2});
    EXPECT_EQ(mp.outputs[0], by_template) << "t=" << t;
  }
}

TEST(ModelEquivalence, HaltingRoundsMatchDecisionDepth) {
  // In the message-passing greedy, a node matched along colour c halts at
  // round c-1 — the "step i at time i-1" accounting of §1.2.
  const graph::WorstCase wc = graph::worst_case_chain(5);
  const local::RunResult mp = local::run_sync(wc.long_path, algo::greedy_program_factory(), {7});
  for (graph::NodeIndex v = 0; v < wc.long_path.node_count(); ++v) {
    const gk::Colour out = mp.outputs[static_cast<std::size_t>(v)];
    if (out != local::kUnmatched) {
      EXPECT_EQ(mp.halt_round[static_cast<std::size_t>(v)], static_cast<int>(out) - 1);
    }
  }
}

}  // namespace
}  // namespace dmm
