// Theorem 2 / Theorem 5 (experiment E4) and Lemma 4 (E3), end to end.
//
// The adversary must (a) produce the tight pair against the correct greedy
// algorithm — establishing the k-1 round lower bound constructively — and
// (b) refute *every* too-fast algorithm we throw at it with a re-checkable
// certificate.
#include "lower/adversary.hpp"

#include <gtest/gtest.h>

#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "algo/truncated_greedy.hpp"

namespace dmm::lower {
namespace {

class GreedyAdversarySweep : public ::testing::TestWithParam<int> {};

TEST_P(GreedyAdversarySweep, TightPairAgainstGreedy) {
  const int k = GetParam();
  const int d = k - 1;
  const algo::GreedyLocal greedy(k);
  const LowerBoundResult result = run_adversary(k, greedy);
  ASSERT_TRUE(result.tight()) << result.summary();
  const TightPair& tp = std::get<TightPair>(result.outcome);
  EXPECT_EQ(tp.d, d);
  // The theorem's witness: U[d] = V[d] ...
  EXPECT_TRUE(ColourSystem::equal_to_radius(tp.u.tree(), tp.v.tree(), d));
  // ... both d-regular ...
  EXPECT_TRUE(tp.u.tree().is_regular(d));
  EXPECT_TRUE(tp.v.tree().is_regular(d));
  // ... with A(U, e) matched and A(V, e) = ⊥.
  EXPECT_NE(tp.out_u, local::kUnmatched);
  EXPECT_EQ(tp.out_v, local::kUnmatched);
  // Independent re-evaluation confirms the outputs.
  Evaluator fresh(greedy);
  EXPECT_EQ(fresh(tp.u, ColourSystem::root()), tp.out_u);
  EXPECT_EQ(fresh(tp.v, ColourSystem::root()), tp.out_v);
}

INSTANTIATE_TEST_SUITE_P(K3toK4, GreedyAdversarySweep, ::testing::Values(3, 4));

TEST(Adversary, TightPairImpliesRoundLowerBound) {
  // The punchline, spelled out: since U[d] = V[d], any algorithm with
  // running time r ≤ d-1 sees identical views at e and must answer
  // identically — but greedy's answers differ.  Therefore greedy's
  // radius-(d+1) views at e must differ, which we verify directly.
  const int k = 3, d = 2;
  const algo::GreedyLocal greedy(k);
  const LowerBoundResult result = run_adversary(k, greedy);
  ASSERT_TRUE(result.tight());
  const TightPair& tp = std::get<TightPair>(result.outcome);
  for (int radius = 1; radius <= d; ++radius) {
    EXPECT_TRUE(ColourSystem::equal_to_radius(tp.u.tree(), tp.v.tree(), radius));
  }
  EXPECT_FALSE(ColourSystem::equal_to_radius(tp.u.tree(), tp.v.tree(), d + 1));
}

TEST(Adversary, RefutesTruncatedGreedyK3) {
  // Every r < k-1 = 2 variant must be caught with a valid certificate.
  for (int r = 0; r <= 1; ++r) {
    const algo::TruncatedGreedy fast(3, r);
    const LowerBoundResult result = run_adversary(3, fast);
    ASSERT_TRUE(result.refuted()) << "r=" << r << ": " << result.summary();
    const Certificate& cert = std::get<Certificate>(result.outcome);
    Evaluator fresh(fast);
    EXPECT_TRUE(certificate_holds(cert, fresh)) << cert.describe();
  }
}

TEST(Adversary, RefutesTruncatedGreedyK4) {
  for (int r = 0; r <= 2; ++r) {
    const algo::TruncatedGreedy fast(4, r);
    const LowerBoundResult result = run_adversary(4, fast);
    ASSERT_TRUE(result.refuted()) << "r=" << r << ": " << result.summary();
    const Certificate& cert = std::get<Certificate>(result.outcome);
    Evaluator fresh(fast);
    EXPECT_TRUE(certificate_holds(cert, fresh)) << cert.describe();
  }
}

TEST(Adversary, RefutesZeroRoundAlgorithmsK5) {
  // k = 5 is out of reach for the full greedy (the budget explodes as
  // h^depth), but 0-round algorithms keep the budget at depth 10 on
  // 4-regular trees — still laptop-instant.
  std::vector<std::unique_ptr<local::LocalAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<algo::TruncatedGreedy>(5, 0));
  algorithms.push_back(std::make_unique<algo::FirstColourLocal>(5));
  for (const auto& a : algorithms) {
    const LowerBoundResult result = run_adversary(5, *a);
    EXPECT_TRUE(result.refuted()) << result.summary();
    if (result.refuted()) {
      Evaluator fresh(*a);
      EXPECT_TRUE(certificate_holds(std::get<Certificate>(result.outcome), fresh));
    }
  }
}

TEST(Adversary, OptimisticBudgetTightPairK5) {
  // The conservative depth budget prices k = 5 vs greedy at ~10^13 nodes;
  // the optimistic scan-cap schedule (witnesses sit at norm 1, E15b)
  // brings it to ~12k nodes.  Outcomes are exact either way — the caps
  // only decide how much tree gets materialised.
  const int k = 5, d = 4;
  const algo::GreedyLocal greedy(k);
  const LowerBoundResult result = run_adversary(k, greedy, {.optimistic = true});
  ASSERT_TRUE(result.tight()) << result.summary();
  const TightPair& tp = std::get<TightPair>(result.outcome);
  EXPECT_EQ(tp.d, d);
  EXPECT_TRUE(ColourSystem::equal_to_radius(tp.u.tree(), tp.v.tree(), d));
  EXPECT_TRUE(tp.u.tree().is_regular(d));
  EXPECT_TRUE(tp.v.tree().is_regular(d));
  EXPECT_NE(tp.out_u, local::kUnmatched);
  EXPECT_EQ(tp.out_v, local::kUnmatched);
  EXPECT_LT(result.stats.max_template_nodes, 100000);
}

TEST(Adversary, OptimisticMatchesConservativeWhereBothRun) {
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const LowerBoundResult conservative = run_adversary(k, greedy);
    const LowerBoundResult optimistic = run_adversary(k, greedy, {.optimistic = true});
    ASSERT_TRUE(conservative.tight());
    ASSERT_TRUE(optimistic.tight());
    const auto& a = std::get<TightPair>(conservative.outcome);
    const auto& b = std::get<TightPair>(optimistic.outcome);
    EXPECT_EQ(a.out_u, b.out_u);
    // Same certificate pair up to the verified radius d.
    EXPECT_TRUE(ColourSystem::equal_to_radius(a.u.tree(), b.u.tree(), a.d));
    EXPECT_TRUE(ColourSystem::equal_to_radius(a.v.tree(), b.v.tree(), a.d));
    // And the optimistic run materialises no more than the conservative.
    EXPECT_LE(optimistic.stats.max_template_nodes, conservative.stats.max_template_nodes);
  }
}

TEST(Adversary, OptimisticRefutationsStillValid) {
  for (int r = 0; r <= 2; ++r) {
    const algo::TruncatedGreedy fast(4, r);
    const LowerBoundResult result = run_adversary(4, fast, {.optimistic = true});
    ASSERT_TRUE(result.refuted()) << result.summary();
    Evaluator fresh(fast);
    EXPECT_TRUE(certificate_holds(std::get<Certificate>(result.outcome), fresh));
  }
}

TEST(Adversary, MemoisationDoesNotChangeOutcomes) {
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const LowerBoundResult with_memo = run_adversary(k, greedy, {.memoise = true});
    const LowerBoundResult without = run_adversary(k, greedy, {.memoise = false});
    EXPECT_EQ(with_memo.tight(), without.tight());
    if (with_memo.tight() && without.tight()) {
      const auto& a = std::get<TightPair>(with_memo.outcome);
      const auto& b = std::get<TightPair>(without.outcome);
      EXPECT_EQ(a.out_u, b.out_u);
      EXPECT_TRUE(ColourSystem::equal_to_radius(a.u.tree(), b.u.tree(), a.d));
      EXPECT_TRUE(ColourSystem::equal_to_radius(a.v.tree(), b.v.tree(), a.d));
    }
    EXPECT_GE(without.stats.evaluations, with_memo.stats.evaluations);
  }
}

TEST(Adversary, DeterministicAcrossRuns) {
  const algo::TruncatedGreedy fast(4, 1);
  const LowerBoundResult first = run_adversary(4, fast);
  const LowerBoundResult second = run_adversary(4, fast);
  ASSERT_TRUE(first.refuted());
  ASSERT_TRUE(second.refuted());
  const auto& a = std::get<Certificate>(first.outcome);
  const auto& b = std::get<Certificate>(second.outcome);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.output, b.output);
}

TEST(Adversary, RefutesFirstColourHeuristic) {
  const algo::FirstColourLocal naive(3);
  const LowerBoundResult result = run_adversary(3, naive);
  ASSERT_TRUE(result.refuted()) << result.summary();
  Evaluator fresh(naive);
  EXPECT_TRUE(certificate_holds(std::get<Certificate>(result.outcome), fresh));
}

TEST(Adversary, DefeatsArbitraryAlgorithmsK3) {
  // Theorem 2 quantifies over all algorithms: every pseudo-random
  // M1-respecting 0/1-round algorithm must be refuted (none of them is a
  // correct maximal-matching algorithm, let alone a fast one).
  int refuted = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const algo::ArbitraryLocal arb(3, static_cast<int>(seed % 2), seed);
    const LowerBoundResult result = run_adversary(3, arb);
    if (result.refuted()) {
      Evaluator fresh(arb);
      EXPECT_TRUE(certificate_holds(std::get<Certificate>(result.outcome), fresh))
          << "seed=" << seed;
      ++refuted;
    } else {
      // An arbitrary function essentially never behaves like a correct
      // algorithm; a tight pair would still be sound, but flag it so the
      // suite notices if it becomes common.
      EXPECT_TRUE(result.tight()) << result.summary();
    }
  }
  EXPECT_GE(refuted, 10);
}

TEST(Adversary, TightPairAgreesWithConcreteSimulation) {
  // End-to-end integration: the adversary's claimed outputs at e must
  // match what the *message-passing* greedy computes on a concrete finite
  // chunk of U and V (big enough that node 0's fate is exact).
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const LowerBoundResult result = run_adversary(k, greedy);
    ASSERT_TRUE(result.tight());
    const TightPair& tp = std::get<TightPair>(result.outcome);
    for (const auto& [tmpl, expected] :
         {std::pair<const Template&, Colour>{tp.u, tp.out_u},
          std::pair<const Template&, Colour>{tp.v, tp.out_v}}) {
      const int radius = std::min(tmpl.valid_radius(), k + 1);
      ASSERT_GE(radius, k) << "chunk too shallow to trust node 0";
      const colsys::ColourSystem chunk = tmpl.tree().ball(colsys::ColourSystem::root(), radius);
      const graph::EdgeColouredGraph g = graph::to_graph(chunk);
      const local::RunResult run = local::run_sync(g, algo::greedy_program_factory(), {k + 2});
      EXPECT_EQ(run.outputs[0], expected) << "k=" << k;
    }
  }
}

TEST(Adversary, StatsAreRecorded) {
  const algo::GreedyLocal greedy(3);
  const LowerBoundResult result = run_adversary(3, greedy);
  EXPECT_GT(result.stats.evaluations, 0u);
  EXPECT_FALSE(result.stats.steps.empty());
  EXPECT_GT(result.stats.max_template_nodes, 0);
  EXPECT_NE(result.summary().find("tight pair"), std::string::npos);
}

TEST(Adversary, RejectsSmallK) {
  const algo::GreedyLocal greedy(2);
  EXPECT_THROW(run_adversary(2, greedy), std::invalid_argument);
}

TEST(Lemma4, RefutesZeroRoundAlgorithms) {
  // Any 0-round algorithm on k = 2 fails on T, U, or V (Lemma 4's proof).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const algo::ArbitraryLocal arb(2, 0, seed);
    const Lemma4Result result = run_lemma4(arb);
    EXPECT_TRUE(result.contradiction_found) << result.summary;
    EXPECT_FALSE(result.report.ok());
  }
  const algo::TruncatedGreedy fast(2, 0);
  const Lemma4Result result = run_lemma4(fast);
  EXPECT_TRUE(result.contradiction_found) << result.summary;
}

TEST(Lemma4, DoesNotApplyToOneRoundAlgorithms) {
  const algo::GreedyLocal greedy(2);
  const Lemma4Result result = run_lemma4(greedy);
  EXPECT_FALSE(result.contradiction_found);
  EXPECT_NE(result.summary.find("nothing to refute"), std::string::npos);
}

TEST(Adversary, GreedyWithExtraRadiusStillTight) {
  // A correct algorithm that looks even further (radius k+1) still cannot
  // avoid the tight pair — the bound is information-theoretic.
  class WideGreedy final : public local::LocalAlgorithm {
   public:
    explicit WideGreedy(int k) : k_(k) {}
    int running_time() const override { return k_; }  // one extra round
    Colour evaluate(const ColourSystem& view) const override {
      return algo::greedy_outputs(view)[static_cast<std::size_t>(ColourSystem::root())];
    }
    std::string name() const override { return "wide-greedy"; }

   private:
    int k_;
  };
  const WideGreedy wide(3);
  const LowerBoundResult result = run_adversary(3, wide);
  EXPECT_TRUE(result.tight()) << result.summary();
}

}  // namespace
}  // namespace dmm::lower
