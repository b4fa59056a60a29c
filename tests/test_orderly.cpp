// Completeness-oracle suite for orderly generation of canonical orbit
// representatives.
//
// The orderly generator replaces the PR 5 replay-fold inside
// enumerate_orbits; a generation bug would silently *drop orbits* and flip
// UNSAT verdicts, so the generator is pinned three independent ways:
//   1. against the replay-fold itself (reduce_catalogue over a full raw
//      enumeration), byte for byte — same rep set, same canonical
//      serialisations, same stabilisers, same cosets — over every feasible
//      k <= 4, rho <= 3 instance;
//   2. against the closed-form Burnside census (rep count and the implied
//      raw member count) for every instance the guard admits;
//   3. metamorphically: relabelling the raw catalogue by any global colour
//      permutation before folding must land on the orderly output exactly.
// Alongside, prune-soundness unit tests drive hand-built partial choice
// vectors through the incremental is-canonical test, so a pruning bug
// fails a named test rather than silently shrinking the catalogue, and the
// k = 5, rho = 3 streaming test runs past the old raw-view guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "colsys/canon.hpp"
#include "nbhd/views.hpp"
#include "util/rng.hpp"

namespace dmm {
namespace {

using colsys::ColourPerm;
using colsys::ColourSystem;
using colsys::SerialisedView;
using gk::Colour;

// Every (k, d, rho) with k <= 4, rho <= 3 whose raw catalogue stays small
// enough for the replay-fold oracle (the largest, k = 4, d = 3, rho = 3,
// is the 78 732-view instance the tentpole targets).
struct Grid {
  int k, d, rho;
};
const Grid kOracleGrid[] = {
    {2, 1, 2}, {2, 2, 2}, {2, 2, 3}, {3, 1, 2}, {3, 2, 1}, {3, 2, 2},
    {3, 2, 3}, {3, 3, 2}, {3, 3, 3}, {4, 1, 2}, {4, 2, 2}, {4, 2, 3},
    {4, 3, 1}, {4, 3, 2}, {4, 3, 3}, {4, 4, 2}, {4, 4, 3},
};

std::vector<std::uint8_t> serialised(const ColourSystem& view, int rho) {
  std::vector<std::uint8_t> bytes;
  view.serialize_into(rho, bytes);
  return bytes;
}

/// Byte-level equality of two orbit catalogues: reps (as serialisations),
/// stabilisers, cosets and offsets.  EXPECTs with context so a mismatch
/// names the instance and orbit.
void expect_catalogues_equal(const nbhd::OrbitCatalogue& got, const nbhd::OrbitCatalogue& want,
                             const char* what) {
  ASSERT_EQ(got.orbit_count(), want.orbit_count()) << what;
  ASSERT_EQ(got.view_count(), want.view_count()) << what;
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
  for (int o = 0; o < got.orbit_count(); ++o) {
    const auto i = static_cast<std::size_t>(o);
    EXPECT_EQ(serialised(got.reps()[i], got.rho()), serialised(want.reps()[i], want.rho()))
        << what << " orbit " << o;
    EXPECT_EQ(got.stabilisers()[i], want.stabilisers()[i]) << what << " orbit " << o;
    EXPECT_EQ(got.cosets()[i], want.cosets()[i]) << what << " orbit " << o;
  }
}

// ---------------------------------------------------------------------------
// Completeness oracle: orderly == replay-fold == census.
// ---------------------------------------------------------------------------

TEST(Orderly, MatchesReplayFoldOnTheFullGrid) {
  for (const Grid& g : kOracleGrid) {
    SCOPED_TRACE(testing::Message() << "k=" << g.k << " d=" << g.d << " rho=" << g.rho);
    const nbhd::OrbitCatalogue orderly = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const nbhd::OrbitCatalogue fold =
        nbhd::reduce_catalogue(nbhd::enumerate_views(g.k, g.d, g.rho));
    expect_catalogues_equal(orderly, fold, "orderly vs replay-fold");
  }
}

TEST(Orderly, CountsMatchTheBurnsideCensus) {
  for (const Grid& g : kOracleGrid) {
    SCOPED_TRACE(testing::Message() << "k=" << g.k << " d=" << g.d << " rho=" << g.rho);
    const nbhd::OrbitCensus census = nbhd::orbit_census(g.k, g.d, g.rho);
    nbhd::OrbitGenStats stats;
    const nbhd::OrbitCatalogue cat = nbhd::enumerate_orbits(g.k, g.d, g.rho, 2'000'000, &stats);
    EXPECT_EQ(static_cast<double>(cat.orbit_count()), census.orbits);
    EXPECT_EQ(static_cast<double>(cat.view_count()), census.views);
    EXPECT_EQ(static_cast<double>(stats.reps_generated), census.orbits);
    EXPECT_EQ(stats.member_views, census.views);
    EXPECT_TRUE(stats.complete);
  }
}

TEST(Orderly, NeverReplaysARawView) {
  // The acceptance criterion of the orderly refactor: k = 4, rho = 3
  // produces its 3 330 reps without walking any of the 78 732 raw views.
  nbhd::OrbitGenStats stats;
  const nbhd::OrbitCatalogue cat = nbhd::enumerate_orbits(4, 3, 3, 2'000'000, &stats);
  EXPECT_EQ(cat.orbit_count(), 3330);
  EXPECT_EQ(cat.view_count(), 78732);
  EXPECT_EQ(stats.reps_generated, 3330);
  EXPECT_EQ(stats.views_replayed, 0);
  EXPECT_LT(stats.views_replayed, 78732);
  EXPECT_EQ(stats.member_views, 78732.0);
}

TEST(Orderly, RepsEmergeInCanonicalByteOrderAndSelfCanonical) {
  std::vector<std::uint8_t> prev;
  nbhd::orderly_orbit_reps(4, 3, 2, [&](nbhd::OrderlyRep&& rep) {
    // Strictly ascending lexicographic bytes — the OrbitCatalogue order.
    EXPECT_TRUE(prev.empty() || prev < rep.bytes);
    // Self-canonical: the branch-and-bound canoniser agrees the emitted
    // bytes are already the orbit minimum.
    std::vector<std::uint8_t> canonical;
    SerialisedView(rep.bytes).canonicalise(canonical);
    EXPECT_EQ(canonical, rep.bytes);
    prev = std::move(rep.bytes);
    return true;
  });
  EXPECT_FALSE(prev.empty());
}

TEST(Orderly, MetamorphicRelabellingFuzz) {
  // Folding a globally relabelled raw catalogue must land exactly on the
  // orderly output: the generator's canonical order erases the input
  // permutation entirely.
  Rng rng(0xd15c0);
  const Grid cases[] = {{3, 2, 2}, {4, 2, 2}, {4, 3, 2}, {3, 2, 3}};
  for (const Grid& g : cases) {
    SCOPED_TRACE(testing::Message() << "k=" << g.k << " d=" << g.d << " rho=" << g.rho);
    const nbhd::OrbitCatalogue orderly = nbhd::enumerate_orbits(g.k, g.d, g.rho);
    const auto perms = colsys::all_perms(g.k);
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    for (int trial = 0; trial < 3; ++trial) {
      const ColourPerm& pi = perms[rng.index(perms.size())];
      std::vector<ColourSystem> views;
      for (const ColourSystem& view : raw.views()) views.push_back(view.permuted(pi));
      const nbhd::ViewCatalogue relabelled(raw.k(), raw.d(), raw.rho(), std::move(views));
      expect_catalogues_equal(nbhd::reduce_catalogue(relabelled), orderly,
                              "relabelled fold vs orderly");
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming past the old raw-view guard.
// ---------------------------------------------------------------------------

TEST(Orderly, StreamsKFiveRhoThreePastTheRawViewGuard) {
  // 2.1e10 raw views made enumerate_orbits(5, 4, 3) throw at any feasible
  // max_views before this PR; the orderly generator streams the same
  // instance's canonical reps directly.  First slice only — the full
  // 178 981 952-rep walk is a nightly-budget affair (bench --scale).
  std::vector<std::uint8_t> prev;
  long long seen = 0;
  const nbhd::OrbitGenStats stats = nbhd::orderly_orbit_reps(5, 4, 3, [&](nbhd::OrderlyRep&& rep) {
    EXPECT_EQ(rep.index, seen);
    EXPECT_TRUE(prev.empty() || prev < rep.bytes);
    prev = std::move(rep.bytes);
    return ++seen < 2000;
  });
  EXPECT_EQ(seen, 2000);
  EXPECT_FALSE(stats.complete);  // stopped early by the callback
  EXPECT_EQ(stats.reps_generated, 2000);
  EXPECT_EQ(stats.views_replayed, 0);
  // The guard itself still protects enumerate_orbits: 1.79e8 reps > 2e6.
  EXPECT_THROW(nbhd::enumerate_orbits(5, 4, 3), std::runtime_error);
  // Past the guard, the 2.1e10 members would overflow the catalogue's
  // index: that throws before any rep is generated.
  EXPECT_THROW(nbhd::enumerate_orbits(5, 4, 3, 200'000'000), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Prune soundness: hand-built partial choice vectors.
// ---------------------------------------------------------------------------

/// k = 3, d = 2, rho = 2 skeleton: internal nodes are the root (2 child
/// colours) and its two children (1 downward colour each).
SerialisedView k3_skeleton() { return SerialisedView(3, 2, 2); }

TEST(PruneSoundness, NonMinimalRootSetsAreRejected) {
  // Root {2, 3}: relabelling 2→1, 3→2 yields root bytes {1, 2} < {2, 3},
  // so no completion can be canonical.
  {
    SerialisedView sv = k3_skeleton();
    const Colour root[] = {2, 3};
    sv.push_assignment(root);
    EXPECT_TRUE(sv.prefix_rejects());
  }
  // Root {1, 3}: 3→2 (fixing 1) beats it the same way.
  {
    SerialisedView sv = k3_skeleton();
    const Colour root[] = {1, 3};
    sv.push_assignment(root);
    EXPECT_TRUE(sv.prefix_rejects());
  }
  // Root {1, 2} is the minimal root set: must NOT be rejected (it has
  // canonical completions, e.g. both children descending by colour 3).
  {
    SerialisedView sv = k3_skeleton();
    const Colour root[] = {1, 2};
    sv.push_assignment(root);
    EXPECT_FALSE(sv.prefix_rejects());
  }
}

TEST(PruneSoundness, SymmetricPrefixIsIndeterminateNotRejected) {
  // Root {1, 2}, first child descends by 3.  The only permutation that
  // could compete (swap 1↔2) hits the still-unassigned second child and
  // certifies nothing; the completion (3, 3) is canonical, so rejecting
  // here would drop a real orbit.
  SerialisedView sv = k3_skeleton();
  const Colour root[] = {1, 2};
  const Colour first[] = {3};
  sv.push_assignment(root);
  sv.push_assignment(first);
  EXPECT_FALSE(sv.prefix_rejects());
  // Completing symmetrically gives the canonical tree with stabiliser
  // {id, (1 2)} — the exact tie set of the full-assignment test.
  const Colour second[] = {3};
  sv.push_assignment(second);
  std::vector<ColourPerm> stab;
  EXPECT_FALSE(sv.prefix_rejects(&stab));
  ASSERT_EQ(stab.size(), 2u);
  EXPECT_EQ(stab[0], colsys::identity_perm(3));
  EXPECT_EQ(stab[1], (ColourPerm{gk::kNoColour, 2, 1, 3}));
}

TEST(PruneSoundness, CompleteNonCanonicalAssignmentIsRejected) {
  // Root {1, 2}, children descend by (3, 2): swapping 1↔2 turns the
  // colour-2 child's segment [1][2] into a colour-1 segment [1][1] — the
  // exact test on the full assignment must reject.
  SerialisedView sv = k3_skeleton();
  const Colour root[] = {1, 2};
  const Colour first[] = {3};
  const Colour second[] = {2};
  sv.push_assignment(root);
  sv.push_assignment(first);
  sv.push_assignment(second);
  EXPECT_TRUE(sv.prefix_rejects());
}

TEST(PruneSoundness, RejectionCanFireBeforeTheAssignmentCompletes) {
  // k = 4, d = 2, rho = 2: root {1, 2}, first child descends by 4.  The
  // transposition (3 4) fixes the root bytes and rewrites the first
  // child's segment to [1][3] < [1][4] without ever touching the
  // unassigned second child — the prune fires mid-prefix.
  SerialisedView sv(4, 2, 2);
  const Colour root[] = {1, 2};
  const Colour first[] = {4};
  sv.push_assignment(root);
  EXPECT_FALSE(sv.prefix_rejects());
  sv.push_assignment(first);
  EXPECT_TRUE(sv.prefix_rejects());
  // Backing the choice out restores the accepted prefix.
  sv.pop_assignment();
  EXPECT_FALSE(sv.prefix_rejects());
  const Colour third[] = {3};
  sv.push_assignment(third);
  EXPECT_FALSE(sv.prefix_rejects());
}

TEST(PruneSoundness, PrefixBytesGrowAndShrinkWithAssignments) {
  SerialisedView sv = k3_skeleton();
  const std::vector<std::uint8_t> empty{3};  // just the k byte
  EXPECT_EQ(sv.prefix_bytes(), empty);
  const Colour root[] = {1, 2};
  sv.push_assignment(root);
  const std::vector<std::uint8_t> after_root{3, 2, 1, 2};
  EXPECT_EQ(sv.prefix_bytes(), after_root);
  const Colour first[] = {3};
  sv.push_assignment(first);
  // The first child's segment closes with the truncated grandchild.
  const std::vector<std::uint8_t> after_first{3, 2, 1, 2, 1, 3, 0xff};
  EXPECT_EQ(sv.prefix_bytes(), after_first);
  sv.pop_assignment();
  EXPECT_EQ(sv.prefix_bytes(), after_root);
  sv.pop_assignment();
  EXPECT_EQ(sv.prefix_bytes(), empty);
  // A fully assigned skeleton's prefix is the whole serialisation.
  sv.push_assignment(root);
  sv.push_assignment(first);
  const Colour second[] = {3};
  sv.push_assignment(second);
  std::vector<std::uint8_t> full;
  sv.serialise(colsys::identity_perm(3), full);
  EXPECT_EQ(sv.prefix_bytes(), full);
}

// ---------------------------------------------------------------------------
// The fast stabiliser walk vs the literal k! oracle.
// ---------------------------------------------------------------------------

TEST(Orderly, StabiliserWalkMatchesBruteForce) {
  for (const Grid& g : {Grid{3, 2, 2}, Grid{4, 2, 2}, Grid{4, 3, 2}}) {
    SCOPED_TRACE(testing::Message() << "k=" << g.k << " d=" << g.d << " rho=" << g.rho);
    const nbhd::ViewCatalogue raw = nbhd::enumerate_views(g.k, g.d, g.rho);
    const auto perms = colsys::all_perms(g.k);
    for (const ColourSystem& view : raw.views()) {
      const SerialisedView sv(serialised(view, g.rho));
      std::vector<ColourPerm> brute;
      std::vector<std::uint8_t> ref, buf;
      sv.serialise(colsys::identity_perm(g.k), ref);
      for (const ColourPerm& pi : perms) {
        buf.clear();
        sv.serialise(pi, buf);
        if (buf == ref) brute.push_back(pi);
      }
      EXPECT_EQ(sv.stabiliser(), brute);
    }
  }
}

}  // namespace
}  // namespace dmm
