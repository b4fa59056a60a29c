// Neighbourhood graphs + CSP (Remark 2): the second proof engine.
//
// The headline assertions: for d = k-1,
//   * rho = r+1 <= k-1  (i.e. r < k-1): the labelling CSP is UNSAT —
//     *no* r-round algorithm exists (Linial-style universal statement,
//     independent of the §3 adversary);
//   * rho = k (r = k-1): greedy's induced labelling is a solution — the
//     bound is tight.
#include "nbhd/csp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <type_traits>

#include "algo/greedy.hpp"
#include "algo/truncated_greedy.hpp"

namespace dmm::nbhd {
namespace {

TEST(Views, CatalogueSizesK3) {
  // d = 2 (paths): root picks 2 of 3 colours; deeper nodes extend by one
  // fresh colour each.
  EXPECT_EQ(enumerate_views(3, 2, 1).size(), 3);
  EXPECT_EQ(enumerate_views(3, 2, 2).size(), 3 * 2 * 2);
  EXPECT_EQ(enumerate_views(3, 2, 3).size(), 3 * 4 * 4);
}

TEST(Views, CatalogueSizesK4) {
  // d = 3: root picks 3 of 4; each depth-1 node picks 2 of remaining 3.
  EXPECT_EQ(enumerate_views(4, 3, 1).size(), 4);
  EXPECT_EQ(enumerate_views(4, 3, 2).size(), 4 * 3 * 3 * 3);
}

TEST(Views, AllViewsAreRegularTrees) {
  const ViewCatalogue cat = enumerate_views(3, 2, 2);
  for (const auto& view : cat.views()) {
    for (colsys::NodeId v : view.nodes_up_to(1)) {
      EXPECT_EQ(view.degree(v), 2);
    }
  }
}

TEST(Views, GuardAgainstBlowup) {
  EXPECT_THROW(enumerate_views(4, 3, 2, /*max_views=*/10), std::runtime_error);
}

TEST(Views, CompatibilityIsSymmetricAndNeedsSharedColour) {
  const ViewCatalogue cat = enumerate_views(3, 2, 2);
  for (int a = 0; a < cat.size(); ++a) {
    for (int b = 0; b < cat.size(); ++b) {
      for (Colour c = 1; c <= 3; ++c) {
        const bool ab = c_compatible(cat.view(a),
                                     cat.view(b), c, 2);
        const bool ba = c_compatible(cat.view(b),
                                     cat.view(a), c, 2);
        EXPECT_EQ(ab, ba);
        if (ab) {
          const auto ca = cat.view(a).colours_at(0);
          EXPECT_NE(std::find(ca.begin(), ca.end(), c), ca.end());
        }
      }
    }
  }
}

TEST(Views, HashedPairsMatchBruteForce) {
  // The bucketed compatible_pairs must agree with the direct definition.
  for (int rho = 1; rho <= 2; ++rho) {
    const ViewCatalogue cat = enumerate_views(3, 2, rho);
    const auto hashed = compatible_pairs(cat);
    std::set<std::tuple<int, int, int>> hashed_set;
    for (const auto& p : hashed) hashed_set.insert({p.a, p.b, p.colour});
    std::set<std::tuple<int, int, int>> brute;
    for (int a = 0; a < cat.size(); ++a) {
      for (int b = a; b < cat.size(); ++b) {
        for (Colour c = 1; c <= 3; ++c) {
          if (c_compatible(cat.view(a),
                           cat.view(b), c, rho)) {
            brute.insert({a, b, c});
          }
        }
      }
    }
    EXPECT_EQ(hashed_set, brute) << "rho=" << rho;
  }
}

TEST(Views, BicliqueIndexIsExactlyTheCompatibilityRelation) {
  // (a, b, c) is compatible by the direct definition iff b's c-class is
  // the partner of a's: the relation is a union of bicliques.  Partners
  // pair up classes of one colour, and each class lists its members once,
  // ascending.
  struct Row {
    int k, d, rho;
  };
  for (const Row& row : {Row{3, 2, 3}, Row{4, 3, 2}, Row{4, 2, 2}}) {
    const ViewCatalogue cat = enumerate_views(row.k, row.d, row.rho);
    const BicliqueIndex& index = cat.index();
    std::uint64_t compatible = 0;
    for (int a = 0; a < cat.size(); ++a) {
      for (int b = a; b < cat.size(); ++b) {
        for (Colour c = 1; c <= row.k; ++c) {
          const bool direct = c_compatible(cat.view(a),
                                           cat.view(b), c, row.rho);
          const std::int32_t cls = index.class_of(a, c);
          const bool indexed = cls != BicliqueIndex::kNoClass &&
                               index.partner(cls) != BicliqueIndex::kNoClass &&
                               index.class_of(b, c) == index.partner(cls);
          EXPECT_EQ(indexed, direct) << "a=" << a << " b=" << b << " c=" << int{c};
          compatible += direct ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(index.pair_count(), compatible) << "k=" << row.k << " rho=" << row.rho;
    std::size_t memberships = 0;
    for (std::int32_t cls = 0; cls < index.class_count(); ++cls) {
      const std::int32_t partner = index.partner(cls);
      if (partner != BicliqueIndex::kNoClass) {
        EXPECT_EQ(index.partner(partner), cls);
        EXPECT_EQ(index.colour(partner), index.colour(cls));
      }
      const auto members = index.members(cls);
      EXPECT_TRUE(std::ranges::is_sorted(members));
      for (const std::int32_t v : members) EXPECT_EQ(index.class_of(v, index.colour(cls)), cls);
      memberships += members.size();
    }
    EXPECT_EQ(memberships, static_cast<std::size_t>(cat.size() * row.d));
  }
}

TEST(Views, ViewsEqualToRadiusRhoAreRefused) {
  // The constructor compares the views' class rows, which are equal iff the
  // views are equal to radius rho: a repeat throws, and so do two views
  // that differ only below depth rho.
  ColourSystem a(3);
  a.add_child(a.add_child(ColourSystem::root(), 1), 2);
  a.add_child(ColourSystem::root(), 3);
  ColourSystem deeper = a;
  deeper.add_child(deeper.child(deeper.child(ColourSystem::root(), 1), 2), 3);
  ColourSystem b(3);
  b.add_child(b.add_child(ColourSystem::root(), 1), 3);
  b.add_child(ColourSystem::root(), 3);
  EXPECT_NO_THROW(ViewCatalogue(3, 2, 2, {a, b}));
  EXPECT_THROW(ViewCatalogue(3, 2, 2, {a, b, a}), std::invalid_argument);
  EXPECT_THROW(ViewCatalogue(3, 2, 2, {a, deeper}), std::invalid_argument);
  EXPECT_NO_THROW(ViewCatalogue(3, 2, 3, {a, deeper}));
  EXPECT_THROW(ViewCatalogue(3, 2, 0, {a}), std::invalid_argument);
}

TEST(Views, CompatiblePairsAreTheIndexWalk) {
  const auto expect_walk = [](const auto& cat, const std::string& what) {
    std::vector<CompatiblePair> walked;
    cat.index().for_each_pair([&](int a, int b, Colour c) { walked.push_back({a, b, c}); });
    const std::vector<CompatiblePair> listed = compatible_pairs(cat);
    ASSERT_EQ(listed.size(), walked.size()) << what;
    EXPECT_EQ(listed.size(), cat.index().pair_count()) << what;
    for (std::size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(std::tie(listed[i].a, listed[i].b, listed[i].colour),
                std::tie(walked[i].a, walked[i].b, walked[i].colour))
          << what << " pair " << i;
    }
  };
  for (const auto& [k, d, rho] : {std::tuple{3, 2, 3}, std::tuple{4, 3, 2}, std::tuple{4, 2, 2}}) {
    const std::string what = "k=" + std::to_string(k) + " d=" + std::to_string(d) +
                             " rho=" + std::to_string(rho);
    expect_walk(enumerate_views(k, d, rho), what);
    expect_walk(enumerate_orbits(k, d, rho), what + " orbits");
  }
}

TEST(Views, CataloguesOwnTheOnlyIndex) {
  // Only a catalogue can build a BicliqueIndex, in its constructor, so
  // compatible_pairs, solve and check_labelling all read that one object.
  static_assert(!std::is_default_constructible_v<BicliqueIndex>);
  static_assert(!std::is_constructible_v<BicliqueIndex, const ViewCatalogue&>);
  static_assert(!std::is_constructible_v<BicliqueIndex, const OrbitCatalogue&>);
  // Catalogues move with their index (perfbench holds them in
  // std::optional and assigns over them).
  static_assert(std::is_move_constructible_v<ViewCatalogue> &&
                std::is_move_assignable_v<ViewCatalogue>);
  static_assert(std::is_move_constructible_v<OrbitCatalogue> &&
                std::is_move_assignable_v<OrbitCatalogue>);
  ViewCatalogue source = enumerate_views(3, 2, 3);
  const CspResult before = solve(source);
  const std::uint64_t pairs = source.index().pair_count();
  std::optional<ViewCatalogue> held;
  held = std::move(source);
  EXPECT_EQ(held->index().view_count(), held->size());
  EXPECT_EQ(held->index().pair_count(), pairs);
  EXPECT_EQ(compatible_pairs(*held).size(), pairs);
  const CspResult after = solve(*held);
  ASSERT_TRUE(after.satisfiable);
  EXPECT_EQ(after.labelling, before.labelling);
  EXPECT_EQ(after.nodes_explored, before.nodes_explored);
  EXPECT_FALSE(check_labelling(*held, after.labelling).has_value());
  held = enumerate_views(3, 2, 2);
  EXPECT_EQ(held->index().view_count(), 12);
  EXPECT_FALSE(solve(*held).satisfiable);
  std::optional<OrbitCatalogue> orbits;
  orbits = enumerate_orbits(3, 2, 3);
  orbits = enumerate_orbits(3, 2, 2);
  EXPECT_EQ(orbits->index().view_count(), 12);
  EXPECT_EQ(solve(*orbits).nodes_explored, 14u);
}

TEST(Views, CompatiblePairsNonEmpty) {
  const ViewCatalogue cat = enumerate_views(3, 2, 2);
  EXPECT_FALSE(compatible_pairs(cat).empty());
}

TEST(Csp, DOneIsTriviallySatisfiable) {
  // d = 1 instances are disjoint single edges: "output your only colour"
  // is a 0-round algorithm, so the rho = 1 CSP must be SAT — a positive
  // control for the encoding.
  for (int k = 2; k <= 4; ++k) {
    const CspResult r = solve(enumerate_views(k, 1, 1));
    ASSERT_TRUE(r.satisfiable) << "k=" << k;
    // Moreover every view must be matched in any solution (self-pairs ban ⊥).
    for (Colour c : r.labelling) EXPECT_NE(c, gk::kNoColour);
  }
}

TEST(Csp, DEqualsKIsSatisfiableAtRhoOne) {
  // d = k: colour class 1 is perfect (§1.3's trivial case); "output 1"
  // solves the rho = 1 CSP.
  for (int k = 2; k <= 4; ++k) {
    const CspResult r = solve(enumerate_views(k, k, 1));
    EXPECT_TRUE(r.satisfiable) << "k=" << k;
  }
}

TEST(Csp, NoZeroRoundAlgorithmK3) {
  const CspResult r = solve(enumerate_views(3, 2, 1));
  EXPECT_FALSE(r.satisfiable);
}

TEST(Csp, NoOneRoundAlgorithmK3) {
  // The universal form of Theorem 5 at k = 3: r = 1 < k-1 = 2 is
  // impossible, by exhaustive labelling search over all 12 views.
  const CspResult r = solve(enumerate_views(3, 2, 2));
  EXPECT_FALSE(r.satisfiable);
}

TEST(Csp, TwoRoundLabellingExistsK3) {
  // r = 2 = k-1: satisfiable, matching Lemma 1.
  const CspResult r = solve(enumerate_views(3, 2, 3));
  ASSERT_TRUE(r.satisfiable);
  EXPECT_FALSE(check_labelling(enumerate_views(3, 2, 3), r.labelling).has_value());
}

TEST(Csp, GreedyLabellingIsASolutionK3) {
  const ViewCatalogue cat = enumerate_views(3, 2, 3);
  const algo::GreedyLocal greedy(3);
  const std::vector<Colour> labelling = induced_labelling(cat, greedy);
  const auto violation = check_labelling(cat, labelling);
  EXPECT_FALSE(violation.has_value())
      << "views " << violation->a << "," << violation->b << " colour "
      << static_cast<int>(violation->colour);
}

TEST(Csp, CheckLabellingReportsTheFirstViolationInPairOrder) {
  // check_labelling walks the class index instead of a pair list; on every
  // one-view corruption of greedy's labelling that keeps (M1) it must name
  // the same first violated pair as a scan of compatible_pairs.
  const ViewCatalogue cat = enumerate_views(3, 2, 3);
  const std::vector<CompatiblePair> pairs = compatible_pairs(cat);
  const std::vector<Colour> valid = induced_labelling(cat, algo::GreedyLocal(3));
  const auto first_in_list = [&](const std::vector<Colour>& labelling) {
    std::optional<CompatiblePair> first;
    for (const CompatiblePair& p : pairs) {
      const Colour x = labelling[static_cast<std::size_t>(p.a)];
      const Colour y = labelling[static_cast<std::size_t>(p.b)];
      if ((x == p.colour) != (y == p.colour) || (x == gk::kNoColour && y == gk::kNoColour)) {
        first = p;
        break;
      }
    }
    return first;
  };
  int violated = 0;
  for (int v = 0; v < cat.size(); ++v) {
    std::vector<Colour> values = cat.view(v).colours_at(
        ColourSystem::root());
    values.push_back(gk::kNoColour);
    for (const Colour value : values) {
      if (value == valid[static_cast<std::size_t>(v)]) continue;
      std::vector<Colour> labelling = valid;
      labelling[static_cast<std::size_t>(v)] = value;
      const std::optional<CompatiblePair> expected = first_in_list(labelling);
      const std::optional<CompatiblePair> found = check_labelling(cat, labelling);
      ASSERT_EQ(found.has_value(), expected.has_value()) << "view " << v;
      if (!found) continue;
      ++violated;
      EXPECT_EQ(found->a, expected->a) << "view " << v;
      EXPECT_EQ(found->b, expected->b) << "view " << v;
      EXPECT_EQ(found->colour, expected->colour) << "view " << v;
    }
  }
  EXPECT_GT(violated, 0);
}

TEST(Csp, TruncatedGreedyLabellingViolatesConstraints) {
  // The 1-round truncated greedy induces a labelling at rho = 2 that must
  // break some constraint (since the CSP is UNSAT).
  const ViewCatalogue cat = enumerate_views(3, 2, 2);
  const algo::TruncatedGreedy fast(3, 1);
  const std::vector<Colour> labelling = induced_labelling(cat, fast);
  EXPECT_TRUE(check_labelling(cat, labelling).has_value());
}

TEST(Csp, KBeyondTheMaskColoursIsRefused) {
  // Domains are 32-bit masks, so solve refuses k > kMaxCspColours; the
  // catalogue, its pairs and check_labelling do not use the masks.
  const ViewCatalogue cat = enumerate_views(kMaxCspColours + 1, 1, 1);
  ASSERT_EQ(cat.size(), kMaxCspColours + 1);
  const std::vector<CompatiblePair> pairs = compatible_pairs(cat);
  EXPECT_EQ(pairs.size(), 31u);  // each single-edge view with itself
  EXPECT_THROW(solve(cat), std::invalid_argument);
  EXPECT_THROW(solve(cat, pairs), std::invalid_argument);
  std::vector<Colour> own(static_cast<std::size_t>(cat.size()));
  for (int v = 0; v < cat.size(); ++v) {
    own[static_cast<std::size_t>(v)] = cat.view(v).colours_at(ColourSystem::root())[0];
  }
  EXPECT_FALSE(check_labelling(cat, own).has_value());
  const CspResult widest = solve(enumerate_views(kMaxCspColours, 1, 1));
  ASSERT_TRUE(widest.satisfiable);
  EXPECT_EQ(widest.labelling.size(), static_cast<std::size_t>(kMaxCspColours));
}

TEST(Csp, NoZeroRoundAlgorithmK4) {
  const CspResult r = solve(enumerate_views(4, 3, 1));
  EXPECT_FALSE(r.satisfiable);
}

TEST(Csp, NoOneRoundAlgorithmK4) {
  // 108 views, UNSAT — r = 1 < k-1 = 3.
  const CspResult r = solve(enumerate_views(4, 3, 2));
  EXPECT_FALSE(r.satisfiable);
}

// ~20 s: 78732 views, ~9.6M constraints.  Run with
// --gtest_also_run_disabled_tests to include it; bench_e17 executes the
// same computation as part of its experiment table.
TEST(Csp, DISABLED_NoTwoRoundAlgorithmK4) {
  const CspResult r = solve(enumerate_views(4, 3, 3, 100'000));
  EXPECT_FALSE(r.satisfiable);
}

TEST(Csp, ArcConsistencyBansBottomBesideADegreeOneView) {
  // A hand-built, irregular ρ = 2 catalogue from the path x —1— y —2— z:
  // view 0 is y (colours 1, 2; both neighbours are leaves) and view 1 is x
  // (colour 1 only; its neighbour has a 2-edge).  They are 1-compatible.
  // Since dom(x) = {⊥, 1} lies within {1, ⊥}, arc consistency removes ⊥
  // from y.  MRV then meets two size-2 domains and branches on y first:
  // y = 1 forces x = 1.  Without that prune x (the smaller domain) would
  // go first, x = ⊥, and the search would return y = 2, x = ⊥.
  ColourSystem y(3);
  y.add_child(ColourSystem::root(), 1);
  y.add_child(ColourSystem::root(), 2);
  ColourSystem x(3);
  x.add_child(x.add_child(ColourSystem::root(), 1), 2);
  const ViewCatalogue cat(3, 2, 2, {y, x});
  ASSERT_TRUE(c_compatible(y, x, 1, 2));
  ASSERT_EQ(compatible_pairs(cat).size(), 1u);
  const CspResult result = solve(cat);
  ASSERT_TRUE(result.satisfiable);
  EXPECT_EQ(result.labelling, (std::vector<Colour>{1, 1}));
  EXPECT_EQ(result.nodes_explored, 2u);
}

TEST(Csp, AgreesWithExhaustiveEnumerationAtRhoOne) {
  // Third cross-validation at k = 3, r = 0: the CSP verdict (UNSAT) agrees
  // with the 864-fold enumeration in test_exhaustive.cpp and with the
  // adversary.  Here: every 0-round table must violate check_labelling on
  // the rho = 1 catalogue.  (The 0-round table's view is the colour set —
  // exactly a rho = 1 view.)
  const ViewCatalogue cat = enumerate_views(3, 2, 1);
  const algo::TruncatedGreedy fast(3, 0);
  EXPECT_TRUE(check_labelling(cat, induced_labelling(cat, fast)).has_value());
}

}  // namespace
}  // namespace dmm::nbhd
