// Equivalence suite for the canonical-form rewrite of the lower-bound
// pipeline.  The seed implementations of enumerate_views and
// compatible_pairs (cross-product tree copies; map keyed on re-serialised
// byte vectors) are reproduced here verbatim as references, and the
// interned pipeline is pinned to them byte for byte: identical view
// catalogues (content *and* order — view ids are load-bearing), identical
// pair vectors, identical CSP verdicts serial vs threaded, and identical
// run_adversary outcomes with interning on and off.
#include "colsys/canon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>

#include "algo/greedy.hpp"
#include "algo/truncated_greedy.hpp"
#include "lower/adversary.hpp"
#include "nbhd/csp.hpp"
#include "util/hash.hpp"

namespace dmm {
namespace {

using colsys::CanonicalStore;
using colsys::ColourSystem;
using colsys::ViewId;
using gk::Colour;

// ---------------------------------------------------------------------------
// Seed reference implementations (PR 2 state of src/nbhd/views.cpp).
// ---------------------------------------------------------------------------

void reference_subsets(int k, int count, Colour forced,
                       std::vector<std::vector<Colour>>& out) {
  std::vector<Colour> pool;
  for (Colour c = 1; c <= k; ++c) {
    if (c != forced) pool.push_back(c);
  }
  const int pick = forced == gk::kNoColour ? count : count - 1;
  if (pick < 0 || pick > static_cast<int>(pool.size())) return;
  std::vector<int> idx(static_cast<std::size_t>(pick));
  for (int i = 0; i < pick; ++i) idx[static_cast<std::size_t>(i)] = i;
  while (true) {
    std::vector<Colour> chosen;
    if (forced != gk::kNoColour) chosen.push_back(forced);
    for (int i : idx) chosen.push_back(pool[static_cast<std::size_t>(i)]);
    std::sort(chosen.begin(), chosen.end());
    out.push_back(std::move(chosen));
    int i = pick - 1;
    while (i >= 0 &&
           idx[static_cast<std::size_t>(i)] == static_cast<int>(pool.size()) - pick + i) {
      --i;
    }
    if (i < 0) break;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < pick; ++j) {
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

nbhd::ViewCatalogue reference_enumerate_views(int k, int d, int rho) {
  std::vector<ColourSystem> views;
  std::vector<ColourSystem> frontier{ColourSystem(k, colsys::kExactRadius)};
  for (int depth = 0; depth < rho; ++depth) {
    std::vector<ColourSystem> next;
    for (const ColourSystem& tree : frontier) {
      std::vector<colsys::NodeId> level;
      for (colsys::NodeId v : tree.nodes_up_to(depth)) {
        if (tree.depth(v) == depth) level.push_back(v);
      }
      std::vector<std::vector<std::vector<Colour>>> options(level.size());
      for (std::size_t i = 0; i < level.size(); ++i) {
        const Colour parent_colour = tree.parent_colour(level[i]);
        std::vector<std::vector<Colour>> sets;
        if (depth == 0) {
          reference_subsets(k, d, gk::kNoColour, sets);
        } else {
          std::vector<std::vector<Colour>> with;
          reference_subsets(k, d, parent_colour, with);
          for (auto& s : with) {
            s.erase(std::remove(s.begin(), s.end(), parent_colour), s.end());
            sets.push_back(std::move(s));
          }
        }
        options[i] = std::move(sets);
      }
      std::vector<std::size_t> pick(level.size(), 0);
      while (true) {
        ColourSystem grown = tree;
        for (std::size_t i = 0; i < level.size(); ++i) {
          for (Colour c : options[i][pick[i]]) grown.add_child(level[i], c);
        }
        next.push_back(std::move(grown));
        std::size_t i = 0;
        while (i < level.size() && ++pick[i] == options[i].size()) {
          pick[i] = 0;
          ++i;
        }
        if (i == level.size()) break;
      }
    }
    frontier = std::move(next);
  }
  std::set<std::vector<std::uint8_t>> seen;
  for (ColourSystem& view : frontier) {
    if (seen.insert(view.serialize(rho)).second) {
      views.push_back(std::move(view));
    }
  }
  return nbhd::ViewCatalogue(k, d, rho, std::move(views));
}

std::vector<nbhd::CompatiblePair> reference_compatible_pairs(
    const nbhd::ViewCatalogue& catalogue) {
  const int rho = catalogue.rho();
  struct Halves {
    std::vector<std::uint8_t> across;
    std::vector<std::uint8_t> remainder;
    bool has_colour = false;
  };
  std::vector<std::vector<Halves>> halves(static_cast<std::size_t>(catalogue.size()));
  std::map<std::pair<Colour, std::vector<std::uint8_t>>, std::vector<int>> by_remainder;
  for (int a = 0; a < catalogue.size(); ++a) {
    auto& mine = halves[static_cast<std::size_t>(a)];
    mine.resize(static_cast<std::size_t>(catalogue.k()) + 1);
    const ColourSystem& view = catalogue.view(a);
    for (Colour c = 1; c <= catalogue.k(); ++c) {
      const colsys::NodeId child = view.child(ColourSystem::root(), c);
      if (child == colsys::kNullNode) continue;
      Halves& h = mine[c];
      h.has_colour = true;
      h.across = view.rerooted(child).pruned(c).restricted(rho - 1).serialize(rho - 1);
      h.remainder = view.pruned(c).restricted(rho - 1).serialize(rho - 1);
      by_remainder[{c, h.remainder}].push_back(a);
    }
  }
  std::vector<nbhd::CompatiblePair> out;
  for (int a = 0; a < catalogue.size(); ++a) {
    for (Colour c = 1; c <= catalogue.k(); ++c) {
      const Halves& ha = halves[static_cast<std::size_t>(a)][c];
      if (!ha.has_colour) continue;
      const auto it = by_remainder.find({c, ha.across});
      if (it == by_remainder.end()) continue;
      for (int b : it->second) {
        if (b < a) continue;
        const Halves& hb = halves[static_cast<std::size_t>(b)][c];
        if (hb.across == ha.remainder) out.push_back({a, b, c});
      }
    }
  }
  return out;
}

// The parameter grid small enough for the O(frontier²) reference.  Each
// row also pins the serial search of its CSP: nodes_explored raw and on the
// orbit path, and on SAT rows the FNV-1a hash of each labelling (0 marks an
// UNSAT row).
struct Grid {
  int k, d, rho;
  std::uint64_t raw_nodes, orbit_nodes;
  std::uint64_t raw_fnv = 0, orbit_fnv = 0;
};
const Grid kGrid[] = {{3, 2, 1, 4, 4},
                      {3, 2, 2, 17, 14},
                      {3, 2, 3, 48, 49, 0x3c669303973bb105, 0x1d853d8ed791acf9},
                      {4, 3, 1, 5, 5},
                      {4, 3, 2, 114, 33},
                      {4, 2, 2, 39, 19},
                      {3, 3, 2, 1, 1, 0xaf63bc4c8601b62c, 0xaf63bc4c8601b62c},
                      {5, 4, 1, 6, 6},
                      {5, 4, 2, 1189, 309},
                      {4, 1, 2, 4, 4, 0xbe7a5e775165785d, 0xbe7a5e775165785d}};

// ---------------------------------------------------------------------------
// CanonicalStore unit behaviour.
// ---------------------------------------------------------------------------

TEST(CanonicalStore, InternsDenselyAndDeduplicates) {
  CanonicalStore store;
  const std::vector<std::uint8_t> a{1, 2, 3}, b{1, 2, 4}, c{1, 2, 3};
  EXPECT_EQ(store.intern(a), 0);
  EXPECT_EQ(store.intern(b), 1);
  EXPECT_EQ(store.intern(c), 0);  // same bytes, same id
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.bytes(0), a);
  EXPECT_EQ(store.bytes(1), b);
  EXPECT_EQ(store.find(a), 0);
  EXPECT_EQ(store.find({9, 9}), colsys::kNullView);
  EXPECT_GT(store.resident_bytes(), a.size() + b.size());
  EXPECT_THROW(store.bytes(2), std::out_of_range);
}

TEST(CanonicalStore, InternByTreeMatchesSerialize) {
  CanonicalStore store;
  const ColourSystem ball = colsys::cayley_ball(3, 2);
  const ViewId id = store.intern(ball, 2);
  EXPECT_EQ(store.bytes(id), ball.serialize(2));
  EXPECT_EQ(store.intern(ball, 2), id);
  // A different radius is a different canonical form.
  EXPECT_NE(store.intern(ball, 1), id);
}

TEST(CanonicalStore, StaysExactAcrossRehashes) {
  // 200 000 distinct keys of lengths 0 to 64 take the id table through
  // fifteen doublings.  Most keys are built from the key before: a prefix
  // of it, it with one byte more, or it with only its last byte changed,
  // so probes keep meeting near-equal keys.  `model` is the reference: a
  // fresh key's id is the number of distinct keys before it.
  std::mt19937_64 rng(27);
  std::map<std::vector<std::uint8_t>, ViewId> model;
  std::vector<std::vector<std::uint8_t>> keys;  // distinct, in first-seen order
  CanonicalStore store;
  std::vector<std::uint8_t> key;
  while (keys.size() < 200000) {
    switch (rng() % 4) {
      case 0:
        key.resize(rng() % 65);
        for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng());
        break;
      case 1:
        key.resize(rng() % (key.size() + 1));
        break;
      case 2:
        if (key.size() < 64) key.push_back(static_cast<std::uint8_t>(rng()));
        break;
      default:
        if (!key.empty()) key.back() = static_cast<std::uint8_t>(key.back() + 1 + rng() % 255);
        break;
    }
    const auto [it, fresh] = model.try_emplace(key, static_cast<ViewId>(keys.size()));
    if (fresh) keys.push_back(key);
    ASSERT_EQ(store.intern(key), it->second);
  }
  ASSERT_EQ(store.size(), 200000);
  for (ViewId id = 0; id < store.size(); ++id) {
    const std::vector<std::uint8_t>& k = keys[static_cast<std::size_t>(id)];
    ASSERT_EQ(store.intern(k), id);
    ASSERT_EQ(store.find(k), id);
    ASSERT_EQ(store.bytes(id), k);
  }
  // Absent keys: interned keys with one byte appended, and a key longer
  // than any interned one.
  int absent = 0;
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    std::vector<std::uint8_t> probe = keys[i];
    probe.push_back(0x5a);
    if (model.count(probe) != 0) continue;
    ++absent;
    EXPECT_EQ(store.find(probe), colsys::kNullView);
  }
  EXPECT_GT(absent, 1000);
  EXPECT_EQ(store.find(std::vector<std::uint8_t>(65, 0)), colsys::kNullView);
  EXPECT_EQ(store.size(), 200000);
  // Interning a tree equals interning its serialisation, either way round.
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(3, 2, 3);
  for (const ColourSystem& view : cat.views()) {
    for (int r = 0; r <= 3; ++r) {
      const ViewId by_tree = store.intern(view, r);
      EXPECT_EQ(store.intern(view.serialize(r)), by_tree);
      EXPECT_EQ(store.bytes(by_tree), view.serialize(r));
    }
  }
  EXPECT_GT(store.size(), 200000);
}

TEST(TransformCache, StoresPerColourEntries) {
  colsys::TransformCache cache(3);
  EXPECT_EQ(cache.get(0, 1), colsys::kUncachedView);
  cache.put(0, 1, 7);
  cache.put(2, 3, colsys::kNullView);  // "no transform" is a cached value
  EXPECT_EQ(cache.get(0, 1), 7);
  EXPECT_EQ(cache.get(2, 3), colsys::kNullView);
  EXPECT_EQ(cache.get(1, 2), colsys::kUncachedView);
}

// ---------------------------------------------------------------------------
// Subtree serialisation against the tree-surgery composition it replaces.
// ---------------------------------------------------------------------------

TEST(SubtreeSerialisation, MatchesRerootPruneRestrictComposition) {
  for (const Grid& g : kGrid) {
    if (g.rho < 2) continue;
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(g.k, g.d, g.rho);
    for (int a = 0; a < std::min(cat.size(), 40); ++a) {
      const ColourSystem& view = cat.view(a);
      for (Colour c = 1; c <= g.k; ++c) {
        const colsys::NodeId child = view.child(ColourSystem::root(), c);
        if (child == colsys::kNullNode) continue;
        std::vector<std::uint8_t> across, remainder;
        view.serialize_subtree_into(child, gk::kNoColour, g.rho - 1, across);
        view.serialize_subtree_into(ColourSystem::root(), c, g.rho - 1, remainder);
        EXPECT_EQ(across,
                  view.rerooted(child).pruned(c).restricted(g.rho - 1).serialize(g.rho - 1));
        EXPECT_EQ(remainder, view.pruned(c).restricted(g.rho - 1).serialize(g.rho - 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Catalogue and pair equivalence against the seed pipeline.
// ---------------------------------------------------------------------------

TEST(InternedPipeline, CataloguesAreByteIdenticalToSeed) {
  for (const Grid& g : kGrid) {
    const nbhd::ViewCatalogue seed = reference_enumerate_views(g.k, g.d, g.rho);
    const nbhd::ViewCatalogue now = nbhd::enumerate_views(g.k, g.d, g.rho);
    ASSERT_EQ(now.size(), seed.size()) << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    for (int i = 0; i < now.size(); ++i) {
      EXPECT_EQ(now.view(i).serialize(g.rho), seed.view(i).serialize(g.rho))
          << "view " << i << " at k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    }
  }
}

TEST(InternedPipeline, PairVectorsAreIdenticalToSeed) {
  for (const Grid& g : kGrid) {
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(g.k, g.d, g.rho);
    const auto seed = reference_compatible_pairs(cat);
    const auto now = nbhd::compatible_pairs(cat);
    ASSERT_EQ(now.size(), seed.size()) << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    for (std::size_t i = 0; i < now.size(); ++i) {
      EXPECT_EQ(now[i].a, seed[i].a);
      EXPECT_EQ(now[i].b, seed[i].b);
      EXPECT_EQ(now[i].colour, seed[i].colour);
    }
  }
}

TEST(InternedPipeline, GoldenCatalogueAndPairCounts) {
  // The k = 4, rho = 3 row — the seed's 20-second frontier, now in tier-1.
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(4, 3, 3);
  EXPECT_EQ(cat.size(), 78732);
  EXPECT_EQ(nbhd::compatible_pairs(cat).size(), 9570312u);
  // Its 236 196 (view, colour) memberships fall into 2 916 biclique
  // classes; 108 of them are their own partner.
  const nbhd::BicliqueIndex& index = cat.index();
  EXPECT_EQ(index.class_count(), 2916);
  EXPECT_EQ(index.pair_count(), 9570312u);
  std::size_t memberships = 0;
  int self_partnered = 0;
  for (std::int32_t cls = 0; cls < index.class_count(); ++cls) {
    memberships += index.members(cls).size();
    if (index.partner(cls) == cls) ++self_partnered;
  }
  EXPECT_EQ(memberships, 236196u);
  EXPECT_EQ(self_partnered, 108);
  // The k = 5 frontier row.
  const nbhd::ViewCatalogue k5 = nbhd::enumerate_views(5, 4, 2);
  EXPECT_EQ(k5.size(), 1280);
  EXPECT_EQ(nbhd::compatible_pairs(k5).size(), 164480u);
}

TEST(InternedPipeline, BlowupGuardIsArithmetic) {
  // The seed materialised up to max_views trees before throwing (~45 s at
  // k = 5, rho = 3); the count is now closed-form, so the guard must fire
  // without enumerating anything.  A wall-clock assertion would be flaky;
  // instead note that this test completing at all (on the 5.5e12-view
  // catalogue) proves the guard no longer marches through memory.
  EXPECT_THROW(nbhd::enumerate_views(5, 4, 3), std::runtime_error);
  EXPECT_THROW(nbhd::enumerate_views(4, 3, 3, /*max_views=*/10), std::runtime_error);
  EXPECT_NO_THROW(nbhd::enumerate_views(4, 3, 2, /*max_views=*/108));
  // The root level alone can blow the budget (rho = 1 has no deeper
  // levels, so the check must not live only inside the level loop).
  EXPECT_THROW(nbhd::enumerate_views(4, 3, 1, /*max_views=*/3), std::runtime_error);
  EXPECT_NO_THROW(nbhd::enumerate_views(4, 3, 1, /*max_views=*/4));
}

// ---------------------------------------------------------------------------
// CSP: serial vs threaded, and labelling validity.
// ---------------------------------------------------------------------------

TEST(CspEquivalence, SerialAndThreadedAgree) {
  for (const Grid& g : kGrid) {
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(g.k, g.d, g.rho);
    const auto pairs = nbhd::compatible_pairs(cat);
    const nbhd::CspResult serial = nbhd::solve(cat, pairs, {.threads = 1});
    for (int threads : {2, 4}) {
      const nbhd::CspResult parallel = nbhd::solve(cat, pairs, {.threads = threads});
      EXPECT_EQ(parallel.satisfiable, serial.satisfiable)
          << "k=" << g.k << " d=" << g.d << " rho=" << g.rho << " threads=" << threads;
      // The winning branch is the lowest SAT value of the root variable in
      // both modes, so the labelling itself is deterministic.
      EXPECT_EQ(parallel.labelling, serial.labelling);
    }
    if (serial.satisfiable) {
      EXPECT_FALSE(nbhd::check_labelling(cat, serial.labelling).has_value());
    }
  }
}

TEST(CspEquivalence, PairReuseOverloadMatches) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(3, 2, 3);
  const auto pairs = nbhd::compatible_pairs(cat);
  const nbhd::CspResult direct = nbhd::solve(cat);
  const nbhd::CspResult reused = nbhd::solve(cat, pairs);
  EXPECT_EQ(direct.satisfiable, reused.satisfiable);
  EXPECT_EQ(direct.labelling, reused.labelling);
  EXPECT_EQ(direct.nodes_explored, reused.nodes_explored);
}

TEST(CspEquivalence, SearchNodesArePinnedOnTheGrid) {
  // The serial search tree of every grid row, raw and on the orbit path:
  // a solver change that moves any count changes which branches it
  // explores, not just how fast.  A SAT row also pins the labelling found,
  // which a change to the value order or the variable pick would move.
  for (const Grid& g : kGrid) {
    const nbhd::CspResult raw = nbhd::solve(nbhd::enumerate_views(g.k, g.d, g.rho));
    const nbhd::CspResult orbit = nbhd::solve(nbhd::enumerate_orbits(g.k, g.d, g.rho));
    EXPECT_EQ(raw.nodes_explored, g.raw_nodes) << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(orbit.nodes_explored, g.orbit_nodes)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(raw.satisfiable ? fnv1a(raw.labelling) : 0, g.raw_fnv)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
    EXPECT_EQ(orbit.satisfiable ? fnv1a(orbit.labelling) : 0, g.orbit_fnv)
        << "k=" << g.k << " d=" << g.d << " rho=" << g.rho;
  }
}

/// Expects solve(catalogue, pairs) to reject the list as not the
/// catalogue's own compatible_pairs.
template <class Catalogue>
void expect_rejected(const Catalogue& cat, const std::vector<nbhd::CompatiblePair>& pairs,
                     const std::string& what) {
  EXPECT_THROW(nbhd::solve(cat, pairs), std::invalid_argument) << what;
}

template <class Catalogue>
void expect_only_its_own_pairs_accepted(const Catalogue& cat) {
  const std::vector<nbhd::CompatiblePair> pairs = nbhd::compatible_pairs(cat);
  ASSERT_GE(pairs.size(), 3u);
  EXPECT_EQ(nbhd::solve(cat, pairs).nodes_explored, nbhd::solve(cat).nodes_explored);
  const std::size_t mid = pairs.size() / 2;

  auto dropped = pairs;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(mid));
  expect_rejected(cat, dropped, "one pair dropped");

  auto duplicated = pairs;
  duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(mid), pairs[mid]);
  expect_rejected(cat, duplicated, "one pair duplicated");

  auto overwritten = pairs;
  overwritten[mid + 1] = overwritten[mid];
  expect_rejected(cat, overwritten, "one pair duplicated over its successor");

  auto swapped = pairs;
  std::swap(swapped[mid], swapped[mid + 1]);
  expect_rejected(cat, swapped, "two adjacent pairs swapped");

  for (const std::size_t i : {std::size_t{0}, mid, pairs.size() - 1}) {
    auto recoloured = pairs;
    recoloured[i].colour = static_cast<Colour>(recoloured[i].colour % cat.k() + 1);
    expect_rejected(cat, recoloured, "one colour changed at pair " + std::to_string(i));
  }
}

TEST(CspEquivalence, PairOverloadAcceptsOnlyTheCataloguesOwnPairs) {
  // solve(cat, pairs) solves the catalogue's own CSP; a list that differs
  // from compatible_pairs(cat) anywhere is rejected, not solved as another
  // CSP.
  const nbhd::ViewCatalogue raw = nbhd::enumerate_views(4, 3, 2);
  const nbhd::OrbitCatalogue orbits = nbhd::enumerate_orbits(4, 3, 2);
  expect_only_its_own_pairs_accepted(raw);
  expect_only_its_own_pairs_accepted(orbits);

  // Another catalogue's pairs: a different size, and (same size, other
  // view numbering) the orbit path's member-indexed list.
  expect_rejected(raw, nbhd::compatible_pairs(nbhd::enumerate_views(4, 2, 2)),
                  "another catalogue's pairs");
  const auto member_pairs = nbhd::compatible_pairs(orbits);
  const auto raw_pairs = nbhd::compatible_pairs(raw);
  ASSERT_EQ(member_pairs.size(), raw_pairs.size());
  ASSERT_FALSE(std::equal(member_pairs.begin(), member_pairs.end(), raw_pairs.begin(),
                          [](const nbhd::CompatiblePair& x, const nbhd::CompatiblePair& y) {
                            return x.a == y.a && x.b == y.b && x.colour == y.colour;
                          }));
  expect_rejected(raw, member_pairs, "the orbit catalogue's pairs");
  expect_rejected(orbits, raw_pairs, "the raw catalogue's pairs");
}

TEST(CspEquivalence, VerdictFrontierMatchesTheorem5) {
  // UNSAT below rho = k, SAT at rho = k (d = k-1): the machine-checked form
  // of the k-1 lower bound, still intact after the rewrite.
  EXPECT_FALSE(nbhd::solve(nbhd::enumerate_views(3, 2, 2)).satisfiable);
  EXPECT_TRUE(nbhd::solve(nbhd::enumerate_views(3, 2, 3)).satisfiable);
  EXPECT_FALSE(nbhd::solve(nbhd::enumerate_views(4, 3, 2)).satisfiable);
  EXPECT_FALSE(nbhd::solve(nbhd::enumerate_views(5, 4, 2)).satisfiable);
}

// ~2 s: the full k = 4, rho = 3 frontier (78 732 views, ~9.6M constraints)
// — the row the canonical-form rewrite brought from ~20 s into tier-1
// reach.  UNSAT here is "no 2-round algorithm exists for k = 4".  The
// class walks pin the guards: a search that walked every partner class
// again would make 407 542.
TEST(CspEquivalence, NoTwoRoundAlgorithmK4InTierOne) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(4, 3, 3);
  const auto pairs = nbhd::compatible_pairs(cat);
  const nbhd::CspResult result = nbhd::solve(cat, pairs);
  EXPECT_FALSE(result.satisfiable);
  EXPECT_EQ(result.nodes_explored, 135864u);
  EXPECT_EQ(result.class_walks, 5796u);
}

// ---------------------------------------------------------------------------
// Adversary: interning on/off changes nothing.
// ---------------------------------------------------------------------------

std::string tight_pair_fingerprint(const lower::LowerBoundResult& result) {
  const auto* tp = std::get_if<lower::TightPair>(&result.outcome);
  if (!tp) return "not tight";
  const auto u = tp->u.tree().serialize(tp->d);
  const auto v = tp->v.tree().serialize(tp->d);
  std::string out(u.begin(), u.end());
  out += "|";
  out.append(v.begin(), v.end());
  out += "|" + std::to_string(static_cast<int>(tp->out_u)) + "|" +
         std::to_string(static_cast<int>(tp->out_v)) + "|" + std::to_string(tp->d);
  return out;
}

TEST(AdversaryEquivalence, MemoOnOffIdenticalOutcomes) {
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const lower::LowerBoundResult with = lower::run_adversary(k, greedy, {.memoise = true});
    const lower::LowerBoundResult without = lower::run_adversary(k, greedy, {.memoise = false});
    ASSERT_TRUE(with.tight()) << "k=" << k;
    ASSERT_TRUE(without.tight()) << "k=" << k;
    EXPECT_EQ(tight_pair_fingerprint(with), tight_pair_fingerprint(without)) << "k=" << k;
    // The memo reports its shape; without memoisation it stays empty.
    EXPECT_GT(with.stats.memo_entries, 0u);
    EXPECT_GT(with.stats.memo_bytes, 0u);
    EXPECT_EQ(without.stats.memo_entries, 0u);
    EXPECT_EQ(without.stats.memo_hits, 0u);
  }
}

TEST(AdversaryEquivalence, RefutationsSurviveTheRewrite) {
  // Too-fast algorithms are still refuted with re-checkable certificates.
  const algo::TruncatedGreedy fast(4, 1);
  const lower::LowerBoundResult result = lower::run_adversary(4, fast);
  ASSERT_TRUE(result.refuted());
  lower::Evaluator eval(fast);
  EXPECT_TRUE(lower::certificate_holds(std::get<lower::Certificate>(result.outcome), eval));
}

TEST(AdversaryEquivalence, SummaryReportsMemoShape) {
  const algo::GreedyLocal greedy(3);
  const lower::LowerBoundResult result = lower::run_adversary(3, greedy);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("memo entries"), std::string::npos);
  EXPECT_NE(summary.find("KiB resident"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Evaluator: the direct realisation-view serialisation is byte-identical
// to materialising the ball and serialising it.
// ---------------------------------------------------------------------------

TEST(Evaluator, DirectSerialisationMatchesBallSerialisation) {
  const algo::GreedyLocal greedy(4);
  lower::Evaluator eval(greedy);
  // A 1-template with a non-trivial tree: the base-case edge system.
  ColourSystem tree(4, colsys::kExactRadius);
  tree.add_child(ColourSystem::root(), 2);
  const lower::Template tmpl(std::move(tree), {1, 1}, 1);
  for (colsys::NodeId t = 0; t < tmpl.tree().size(); ++t) {
    for (int radius = 0; radius <= 3; ++radius) {
      std::vector<std::uint8_t> direct;
      lower::serialize_realisation_into(tmpl, t, radius, direct);
      EXPECT_EQ(direct, lower::realisation_ball(tmpl, t, radius).serialize(radius))
          << "t=" << t << " radius=" << radius;
    }
  }
}

}  // namespace
}  // namespace dmm
