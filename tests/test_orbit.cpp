// Orbit-equivalence suite for the colour-permutation reduction of the
// lower-bound catalogue.
//
// The quotient by global colour relabellings must never change an answer:
// the fast branch-and-bound canoniser is pinned byte for byte against a
// literal k! minimisation loop, orbit counts against Burnside hand counts
// and against an independent brute-force partition, the orbit-level pair
// index against the raw pair index on the expanded catalogue, and the
// orbit-mode CSP against the raw solve.  A metamorphic fuzz then relabels
// whole catalogues by random permutations and checks that the orbit
// pipeline erases the relabelling entirely (identical reduced catalogues,
// identical verdicts *and* search-node counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "colsys/canon.hpp"
#include "nbhd/csp.hpp"
#include "util/rng.hpp"

namespace dmm {
namespace {

using colsys::ColourPerm;
using colsys::ColourSystem;
using gk::Colour;

// The small-parameter grid (k ≤ 4, ρ ≤ 2 per the canoniser pinning task,
// plus the ρ = 3 row used by the CSP-level checks).  CSP rows also pin the
// serial search: nodes_explored raw and on the orbit path.
struct Grid {
  int k, d, rho;
  std::uint64_t raw_nodes = 0, orbit_nodes = 0;
};
const Grid kCanonGrid[] = {{3, 2, 1}, {3, 2, 2}, {4, 3, 1}, {4, 3, 2},
                           {4, 2, 2}, {3, 3, 2}, {4, 1, 2}, {2, 1, 2}};
const Grid kCspGrid[] = {{3, 2, 1, 4, 4},   {3, 2, 2, 17, 14},   {3, 2, 3, 48, 49},
                         {4, 3, 1, 5, 5},   {4, 3, 2, 114, 33},  {4, 2, 2, 39, 19},
                         {3, 3, 2, 1, 1},   {4, 1, 2, 4, 4}};

/// Literal k! reference: minimise the serialisation over every relabelled
/// copy of the tree, built through ColourSystem::permuted.
std::vector<std::uint8_t> brute_force_canonical(const ColourSystem& view, int rho,
                                                ColourPerm* witness = nullptr) {
  std::vector<std::uint8_t> best;
  for (const ColourPerm& pi : colsys::all_perms(view.k())) {
    const std::vector<std::uint8_t> bytes = view.permuted(pi).serialize(rho);
    if (best.empty() || bytes < best) {
      best = bytes;
      if (witness) *witness = pi;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Permutation helpers.
// ---------------------------------------------------------------------------

TEST(ColourPerms, ComposeInvertRank) {
  const auto perms = colsys::all_perms(3);
  ASSERT_EQ(perms.size(), 6u);
  EXPECT_EQ(perms.front(), colsys::identity_perm(3));
  for (std::uint32_t i = 0; i < perms.size(); ++i) {
    EXPECT_EQ(colsys::perm_rank(perms[i]), i);  // all_perms is rank order
    const ColourPerm inv = colsys::inverse_perm(perms[i]);
    EXPECT_EQ(colsys::compose_perm(perms[i], inv), colsys::identity_perm(3));
    EXPECT_EQ(colsys::compose_perm(inv, perms[i]), colsys::identity_perm(3));
  }
  // (a ∘ b)(c) = a(b(c)).
  const ColourPerm a = perms[1], b = perms[4];
  const ColourPerm ab = colsys::compose_perm(a, b);
  for (Colour c = 1; c <= 3; ++c) EXPECT_EQ(ab[c], a[b[c]]);
}

TEST(ColourPerms, PermutedTreeRoundTrips) {
  const ColourSystem ball = colsys::regular_system(4, 3, 3);
  for (const ColourPerm& pi : colsys::all_perms(4)) {
    const ColourSystem image = ball.permuted(pi);
    EXPECT_EQ(image.permuted(colsys::inverse_perm(pi)).serialize(3), ball.serialize(3));
  }
  EXPECT_THROW(ball.permuted({0, 1, 2}), std::invalid_argument);  // wrong size
}

// ---------------------------------------------------------------------------
// Canoniser: fast path == literal k! loop, on every view of the grid.
// ---------------------------------------------------------------------------

TEST(OrbitCanon, FastPathMatchesBruteForceOnAllGridViews) {
  for (const Grid& g : kCanonGrid) {
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(g.k, g.d, g.rho);
    for (const ColourSystem& view : cat.views()) {
      const std::vector<std::uint8_t> reference = brute_force_canonical(view, g.rho);
      std::vector<std::uint8_t> fast;
      ColourPerm witness;
      colsys::SerialisedView(view, g.rho).canonicalise(fast, &witness);
      ASSERT_EQ(fast, reference) << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
      // The witness realises the minimum: π·view serialises to the bytes.
      EXPECT_EQ(view.permuted(witness).serialize(g.rho), reference);
    }
  }
}

TEST(OrbitCanon, WitnessAndPermutedSerialisationAgree) {
  // SerialisedView::serialise(π) == permuted(π).serialize — the identity
  // the member-map folding and the pair lifting both rest on.
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(4, 3, 2);
  for (int i = 0; i < cat.size(); i += 7) {
    const ColourSystem& view = cat.view(i);
    const colsys::SerialisedView parsed(view, cat.rho());
    for (const ColourPerm& pi : colsys::all_perms(4)) {
      std::vector<std::uint8_t> direct;
      parsed.serialise(pi, direct);
      EXPECT_EQ(direct, view.permuted(pi).serialize(cat.rho()));
    }
  }
}

TEST(OrbitCanon, StabiliserIsTheFullSymmetryGroupOfTheTree) {
  // The depth-1 star on colours {1..d} is stabilised by exactly the
  // permutations fixing {1..d} setwise: d! · (k-d)! elements.
  const ColourSystem star = colsys::regular_system(4, 2, 1);
  const auto stab = colsys::SerialisedView(star, 1).stabiliser();
  EXPECT_EQ(stab.size(), 4u);  // 2! · 2!
  for (const ColourPerm& s : stab) {
    EXPECT_EQ(star.permuted(s).serialize(1), star.serialize(1));
  }
}

// ---------------------------------------------------------------------------
// Census: Burnside hand counts and brute-force partitions.
// ---------------------------------------------------------------------------

/// Independent oracle: partition the raw catalogue into orbits by brute
/// force (k! serialisations per view, set union).
int brute_force_orbit_count(const nbhd::ViewCatalogue& cat) {
  std::set<std::vector<std::uint8_t>> reps;
  for (const ColourSystem& view : cat.views()) {
    reps.insert(brute_force_canonical(view, cat.rho()));
  }
  return static_cast<int>(reps.size());
}

TEST(OrbitCensus, MatchesHandCountsOnTinyCases) {
  // k = 3, d = 2, ρ = 1: the three 2-subsets of [3] — a single orbit.
  nbhd::OrbitCensus census = nbhd::orbit_census(3, 2, 1);
  EXPECT_EQ(census.views, 3.0);
  EXPECT_EQ(census.orbits, 1.0);
  // k = 3, d = 2, ρ = 2: 12 views; by Burnside (12 + 3·2 + 2·0)/6 = 3
  // orbits (both children bounce back / one bounces / neither bounces).
  census = nbhd::orbit_census(3, 2, 2);
  EXPECT_EQ(census.views, 12.0);
  EXPECT_EQ(census.orbits, 3.0);
  // k = 4, d = 3, ρ = 1: four 3-subsets, again a single orbit.
  census = nbhd::orbit_census(4, 3, 1);
  EXPECT_EQ(census.views, 4.0);
  EXPECT_EQ(census.orbits, 1.0);
  // k = 2, d = 1, ρ = 2: the two single edges — one orbit.
  census = nbhd::orbit_census(2, 1, 2);
  EXPECT_EQ(census.views, 2.0);
  EXPECT_EQ(census.orbits, 1.0);
}

TEST(OrbitCensus, MatchesBruteForcePartitionOnTheGrid) {
  for (const Grid& g : kCanonGrid) {
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(g.k, g.d, g.rho);
    const nbhd::OrbitCensus census = nbhd::orbit_census(g.k, g.d, g.rho);
    EXPECT_EQ(census.views, static_cast<double>(cat.size()))
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(census.orbits, static_cast<double>(brute_force_orbit_count(cat)))
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
  }
}

TEST(OrbitCensus, CountsTheFrontierWithoutEnumerating) {
  // k = 5, ρ = 3: ~5.5e12 raw views — materialisation throws the guard,
  // the census is arithmetic.  The exact raw count is the closed form
  // C(5,4) · C(4,3)^(4 + 4·3) = 5 · 4^16.
  EXPECT_THROW(nbhd::enumerate_views(5, 4, 3), std::runtime_error);
  EXPECT_THROW(nbhd::enumerate_orbits(5, 4, 3), std::runtime_error);
  const nbhd::OrbitCensus census = nbhd::orbit_census(5, 4, 3);
  EXPECT_EQ(census.views, 5.0 * std::pow(4.0, 16.0));
  EXPECT_GE(census.orbits, census.views / 120.0);  // |S_5| = 120
  EXPECT_LT(census.orbits, census.views / 100.0);  // ... and nearly free orbits
  // The k = 4, ρ = 3 tier-1 row: 78 732 views fold into 3 303 orbits — the
  // ≥ 20× catalogue cut the bench records as orbit_reduction.
  const nbhd::OrbitCensus tier1 = nbhd::orbit_census(4, 3, 3);
  EXPECT_EQ(tier1.views, 78732.0);
  EXPECT_GE(tier1.views / tier1.orbits, 20.0);
}

// ---------------------------------------------------------------------------
// Orbit catalogues: enumeration, reduction, expansion.
// ---------------------------------------------------------------------------

TEST(OrbitCatalogue, EnumerateEqualsReduceAndMatchesCensus) {
  for (const Grid& g : kCspGrid) {
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    const nbhd::OrbitCatalogue enumerated = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const nbhd::OrbitCatalogue reduced = nbhd::reduce_catalogue(raw);
    const nbhd::OrbitCensus census = nbhd::orbit_census(g.k, g.d, g.rho);
    ASSERT_EQ(enumerated.orbit_count(), static_cast<int>(census.orbits));
    ASSERT_EQ(enumerated.view_count(), raw.size());
    ASSERT_EQ(reduced.orbit_count(), enumerated.orbit_count());
    ASSERT_EQ(reduced.offsets(), enumerated.offsets());
    for (int o = 0; o < enumerated.orbit_count(); ++o) {
      const std::size_t i = static_cast<std::size_t>(o);
      EXPECT_EQ(reduced.reps()[i].serialize(g.rho), enumerated.reps()[i].serialize(g.rho));
      EXPECT_EQ(reduced.cosets()[i], enumerated.cosets()[i]);
      EXPECT_EQ(reduced.stabilisers()[i], enumerated.stabilisers()[i]);
      // |orbit| · |stabiliser| = k! (orbit–stabiliser theorem).
      std::size_t fact = 1;
      for (int f = 2; f <= g.k; ++f) fact *= static_cast<std::size_t>(f);
      EXPECT_EQ(enumerated.cosets()[i].size() * enumerated.stabilisers()[i].size(), fact);
      // The representative is canonical: its own orbit minimum.
      EXPECT_EQ(enumerated.reps()[i].serialize(g.rho),
                brute_force_canonical(enumerated.reps()[i], g.rho));
    }
    // Orbit order is canonical-bytes order.
    for (int o = 0; o + 1 < enumerated.orbit_count(); ++o) {
      EXPECT_LT(enumerated.reps()[static_cast<std::size_t>(o)].serialize(g.rho),
                enumerated.reps()[static_cast<std::size_t>(o + 1)].serialize(g.rho));
    }
  }
}

TEST(OrbitCatalogue, ExpansionIsTheRawCatalogueUpToOrder) {
  for (const Grid& g : kCspGrid) {
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    const nbhd::ViewCatalogue expanded =
        nbhd::expand_catalogue(nbhd::enumerate_orbits(g.k, g.d, g.rho));
    ASSERT_EQ(expanded.size(), raw.size());
    std::set<std::vector<std::uint8_t>> raw_bytes, expanded_bytes;
    for (const ColourSystem& v : raw.views()) raw_bytes.insert(v.serialize(g.rho));
    for (const ColourSystem& v : expanded.views()) expanded_bytes.insert(v.serialize(g.rho));
    EXPECT_EQ(expanded_bytes, raw_bytes);  // sets equal + sizes equal ⇒ no dup
  }
}

// ---------------------------------------------------------------------------
// Pairs and CSP.
// ---------------------------------------------------------------------------

TEST(OrbitPairs, LiftedPairIndexEqualsRawIndexOnExpandedCatalogue) {
  for (const Grid& g : kCspGrid) {
    const nbhd::OrbitCatalogue orbits = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const auto lifted = nbhd::compatible_pairs(orbits);
    const auto raw = nbhd::compatible_pairs(nbhd::expand_catalogue(orbits));
    ASSERT_EQ(lifted.size(), raw.size()) << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    for (std::size_t i = 0; i < lifted.size(); ++i) {
      EXPECT_EQ(lifted[i].a, raw[i].a);
      EXPECT_EQ(lifted[i].b, raw[i].b);
      EXPECT_EQ(lifted[i].colour, raw[i].colour);
    }
  }
}

TEST(OrbitPairs, OrbitIndexEqualsRawIndexOnExpandedCatalogue) {
  // Class ids follow first appearance in (member, colour) order, so the
  // orbit-level index and the raw index of the expansion agree class for
  // class, not only pair for pair.  The k = 4, ρ = 3 catalogue is where the
  // orbit build reuses canonised halves the most (19 980 halves, 54
  // distinct serialisations).
  std::vector<Grid> inputs(std::begin(kCspGrid), std::end(kCspGrid));
  inputs.push_back({4, 3, 3});
  for (const Grid& g : inputs) {
    const nbhd::OrbitCatalogue orbits = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const nbhd::ViewCatalogue expanded = nbhd::expand_catalogue(orbits);
    const nbhd::BicliqueIndex& lifted = orbits.index();
    const nbhd::BicliqueIndex& raw = expanded.index();
    ASSERT_EQ(lifted.view_count(), raw.view_count());
    ASSERT_EQ(lifted.class_count(), raw.class_count())
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(lifted.pair_count(), raw.pair_count());
    for (int v = 0; v < raw.view_count(); ++v) {
      for (Colour c = 1; c <= g.k; ++c) EXPECT_EQ(lifted.class_of(v, c), raw.class_of(v, c));
    }
    for (std::int32_t cls = 0; cls < raw.class_count(); ++cls) {
      EXPECT_EQ(lifted.colour(cls), raw.colour(cls));
      EXPECT_EQ(lifted.partner(cls), raw.partner(cls));
      EXPECT_TRUE(std::ranges::equal(lifted.members(cls), raw.members(cls)));
    }
  }
}

TEST(OrbitCsp, VerdictMatchesRawSolveEverywhere) {
  for (const Grid& g : kCspGrid) {
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    const nbhd::OrbitCatalogue orbits = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const nbhd::CspResult raw_result = nbhd::solve(raw);
    const nbhd::CspResult orbit_result = nbhd::solve(orbits);
    EXPECT_EQ(orbit_result.satisfiable, raw_result.satisfiable)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    // The pinned search trees (the orbit path numbers its members
    // differently, so its tree differs from the raw one).
    EXPECT_EQ(raw_result.nodes_explored, g.raw_nodes)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(orbit_result.nodes_explored, g.orbit_nodes)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    if (orbit_result.satisfiable) {
      // The labelling is indexed by member order: valid on the expansion.
      EXPECT_FALSE(
          nbhd::check_labelling(nbhd::expand_catalogue(orbits), orbit_result.labelling)
              .has_value());
    }
    // Serial and threaded orbit solves agree (same contract as raw).
    const nbhd::CspResult threaded = nbhd::solve(orbits, nbhd::CspOptions{.threads = 4});
    EXPECT_EQ(threaded.satisfiable, orbit_result.satisfiable);
    EXPECT_EQ(threaded.labelling, orbit_result.labelling);
  }
}

TEST(OrbitCsp, TheoremFiveFrontierSurvivesTheQuotient) {
  // UNSAT below ρ = k, SAT at ρ = k — bit-identical to the raw engine.
  EXPECT_FALSE(nbhd::solve(nbhd::enumerate_orbits(3, 2, 2)).satisfiable);
  EXPECT_TRUE(nbhd::solve(nbhd::enumerate_orbits(3, 2, 3)).satisfiable);
  EXPECT_FALSE(nbhd::solve(nbhd::enumerate_orbits(4, 3, 2)).satisfiable);
}

TEST(OrbitCsp, NoTwoRoundAlgorithmK4FromOrbitsInTierOne) {
  // The k = 4, ρ = 3 verdict from its 3 330 orbit representatives: the
  // same 9 570 312 member pairs, UNSAT after the pinned 66 117 nodes and
  // 2 960 class walks (198 346 without the guards).
  const nbhd::OrbitCatalogue orbits = nbhd::enumerate_orbits(4, 3, 3);
  const auto pairs = nbhd::compatible_pairs(orbits);
  EXPECT_EQ(pairs.size(), 9570312u);
  const nbhd::CspResult result = nbhd::solve(orbits, pairs);
  EXPECT_FALSE(result.satisfiable);
  EXPECT_EQ(result.nodes_explored, 66117u);
  EXPECT_EQ(result.class_walks, 2960u);
}

// ---------------------------------------------------------------------------
// Metamorphic fuzz: a global relabelling of the input catalogue must be
// erased by the orbit reduction — identical reduced catalogues, identical
// verdicts and search-node counts — and must never flip the raw verdict.
// ---------------------------------------------------------------------------

nbhd::ViewCatalogue permute_catalogue(const nbhd::ViewCatalogue& cat, const ColourPerm& pi) {
  std::vector<ColourSystem> views;
  for (const ColourSystem& view : cat.views()) views.push_back(view.permuted(pi));
  return nbhd::ViewCatalogue(cat.k(), cat.d(), cat.rho(), std::move(views));
}

TEST(OrbitMetamorphic, RandomRelabellingsAreErasedByTheReduction) {
  Rng rng(0xdecaf);
  const Grid fuzz_grid[] = {{3, 2, 2}, {4, 3, 2}, {4, 2, 2}, {3, 2, 3}};
  for (const Grid& g : fuzz_grid) {
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    const nbhd::OrbitCatalogue baseline = nbhd::reduce_catalogue(raw);
    const nbhd::CspResult baseline_result = nbhd::solve(baseline);
    const auto perms = colsys::all_perms(g.k);
    for (int round = 0; round < 25; ++round) {
      const ColourPerm& pi = perms[rng.index(perms.size())];
      const nbhd::ViewCatalogue permuted = permute_catalogue(raw, pi);
      const nbhd::OrbitCatalogue reduced = nbhd::reduce_catalogue(permuted);
      // The reduced catalogue is identical object by object...
      ASSERT_EQ(reduced.orbit_count(), baseline.orbit_count());
      ASSERT_EQ(reduced.offsets(), baseline.offsets());
      for (int o = 0; o < reduced.orbit_count(); ++o) {
        const std::size_t i = static_cast<std::size_t>(o);
        ASSERT_EQ(reduced.reps()[i].serialize(g.rho), baseline.reps()[i].serialize(g.rho));
        ASSERT_EQ(reduced.cosets()[i], baseline.cosets()[i]);
      }
      // ... so the orbit solve returns the same verdict AND csp_nodes.
      const nbhd::CspResult result = nbhd::solve(reduced);
      EXPECT_EQ(result.satisfiable, baseline_result.satisfiable);
      EXPECT_EQ(result.nodes_explored, baseline_result.nodes_explored);
      EXPECT_EQ(result.labelling, baseline_result.labelling);
      // And the raw engine on the permuted catalogue agrees on the verdict
      // (its nodes_explored may differ — value order is colour order).
      EXPECT_EQ(nbhd::solve(permuted).satisfiable, baseline_result.satisfiable);
    }
  }
}

}  // namespace
}  // namespace dmm
