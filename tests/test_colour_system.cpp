// Colour systems (§2.2): prefix closure, C(V, v), restriction, re-rooting
// (Lemma 3), pruning, grafting, balls and canonical serialisation.
#include "colsys/colour_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace dmm::colsys {
namespace {

using gk::Word;

/// Random exact colour system on k colours with roughly `target` nodes.
ColourSystem random_system(Rng& rng, int k, int target) {
  ColourSystem out(k, kExactRadius);
  std::vector<NodeId> pool{ColourSystem::root()};
  while (out.size() < target) {
    const NodeId v = pool[rng.index(pool.size())];
    const gk::Colour c = static_cast<gk::Colour>(rng.uniform(1, k));
    if (out.parent_colour(v) != c && out.child(v, c) == kNullNode) {
      pool.push_back(out.add_child(v, c));
    }
  }
  return out;
}

TEST(ColourSystem, SingletonBasics) {
  ColourSystem z(4);
  EXPECT_EQ(z.size(), 1);
  EXPECT_TRUE(z.is_exact());
  EXPECT_EQ(z.degree(ColourSystem::root()), 0);
  EXPECT_TRUE(z.colours_at(ColourSystem::root()).empty());
  EXPECT_EQ(z.word_of(ColourSystem::root()), Word{});
}

TEST(ColourSystem, AddChildMaintainsWords) {
  ColourSystem v(4);
  const NodeId a = v.add_child(ColourSystem::root(), 2);
  const NodeId b = v.add_child(a, 3);
  EXPECT_EQ(v.word_of(b).str(), "2.3");
  EXPECT_EQ(v.depth(b), 2);
  EXPECT_EQ(v.parent(b), a);
  EXPECT_EQ(v.parent_colour(b), 3);
  EXPECT_EQ(v.find(Word::parse("2.3")), b);
  EXPECT_EQ(v.find(Word::parse("3")), kNullNode);
}

TEST(ColourSystem, AddChildRejectsUnreducedAndDuplicates) {
  ColourSystem v(4);
  const NodeId a = v.add_child(ColourSystem::root(), 2);
  EXPECT_THROW(v.add_child(a, 2), std::logic_error);       // word would not be reduced
  EXPECT_THROW(v.add_child(ColourSystem::root(), 2), std::logic_error);  // duplicate slot
  EXPECT_THROW(v.add_child(a, 0), std::invalid_argument);
  EXPECT_THROW(v.add_child(a, 5), std::invalid_argument);
}

TEST(ColourSystem, ColoursAtIncludesParentColour) {
  ColourSystem v = path_system(4, {1, 2, 3});
  const NodeId mid = v.find(Word::parse("1.2"));
  const std::vector<gk::Colour> c = v.colours_at(mid);
  EXPECT_EQ(c, (std::vector<gk::Colour>{2, 3}));
  EXPECT_EQ(v.degree(mid), 2);
}

TEST(ColourSystem, PrefixClosureByConstruction) {
  // Every node's pred is present: walking towards e never leaves V (§2.2).
  Rng rng(31);
  ColourSystem v = random_system(rng, 5, 200);
  for (NodeId n = 0; n < v.size(); ++n) {
    Word w = v.word_of(n);
    while (!w.is_identity()) {
      w = w.pred();
      EXPECT_NE(v.find(w), kNullNode);
    }
  }
}

TEST(ColourSystem, CayleyBallIsKRegular) {
  const ColourSystem g = cayley_ball(3, 4);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_EQ(g.valid_radius(), 4);
  // |Γ_3[4]| = 1 + 3 + 3*2 + 3*4 + 3*8 = 46.
  EXPECT_EQ(g.size(), 46);
}

TEST(ColourSystem, RegularSystemDegrees) {
  const ColourSystem v = regular_system(5, 3, 5);
  EXPECT_TRUE(v.is_regular(3));
  for (NodeId n : v.nodes_up_to(4)) {
    EXPECT_EQ(v.degree(n), 3);
  }
}

TEST(ColourSystem, RegularSystemZeroIsSingleton) {
  const ColourSystem v = regular_system(4, 0, 7);
  EXPECT_EQ(v.size(), 1);
  EXPECT_TRUE(v.is_exact());
}

TEST(ColourSystem, RestrictedKeepsExactlyTheBall) {
  const ColourSystem g = cayley_ball(3, 5);
  const ColourSystem h = g.restricted(2);
  EXPECT_TRUE(h.is_exact());
  EXPECT_EQ(h.size(), 1 + 3 + 6);
  for (NodeId n = 0; n < h.size(); ++n) EXPECT_LE(h.depth(n), 2);
}

TEST(ColourSystem, RestrictedBeyondTruncationThrows) {
  const ColourSystem g = cayley_ball(3, 3);
  EXPECT_THROW(g.restricted(4), std::logic_error);
  EXPECT_NO_THROW(g.restricted(3));
}

TEST(ColourSystem, RerootedIsIsomorphicTranslation) {
  // Lemma 3: x -> ūx is an isomorphism from Γ_k(V) to Γ_k(ūV).
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    ColourSystem v = random_system(rng, 4, 60);
    const NodeId y = static_cast<NodeId>(rng.index(static_cast<std::size_t>(v.size())));
    std::vector<NodeId> map;
    const ColourSystem w = v.rerooted(y, &map);
    ASSERT_EQ(w.size(), v.size());
    const Word u_bar = v.word_of(y).inverse();
    for (NodeId n = 0; n < v.size(); ++n) {
      ASSERT_NE(map[static_cast<std::size_t>(n)], kNullNode);
      // The relabelled node carries the translated word.
      EXPECT_EQ(w.word_of(map[static_cast<std::size_t>(n)]), u_bar * v.word_of(n));
      // Degrees (adjacency) are preserved.
      EXPECT_EQ(w.degree(map[static_cast<std::size_t>(n)]), v.degree(n));
    }
  }
}

TEST(ColourSystem, RerootedTwiceReturnsHome) {
  Rng rng(41);
  ColourSystem v = random_system(rng, 4, 50);
  const NodeId y = static_cast<NodeId>(rng.index(static_cast<std::size_t>(v.size())));
  std::vector<NodeId> map;
  const ColourSystem w = v.rerooted(y, &map);
  // Find e's image and re-root back.
  const NodeId e_in_w = map[0];
  const ColourSystem v2 = w.rerooted(e_in_w);
  EXPECT_TRUE(ColourSystem::equal_to_radius(v, v2, 64));
}

TEST(ColourSystem, RerootedTruncationAccounting) {
  const ColourSystem g = cayley_ball(3, 6);
  const NodeId y = g.find(Word::parse("1.2"));
  ASSERT_NE(y, kNullNode);
  const ColourSystem h = g.rerooted(y);
  EXPECT_EQ(h.valid_radius(), 4);
}

TEST(ColourSystem, PrunedDropsExactlyTheSubtree) {
  // prune(V, c) = {v ∈ V - e : head(v) != c} + e (§2.2).
  const ColourSystem g = cayley_ball(3, 3);
  std::vector<NodeId> map;
  const ColourSystem p = g.pruned(2, &map);
  for (NodeId n = 0; n < g.size(); ++n) {
    const Word w = g.word_of(n);
    const bool kept = w.is_identity() || w.head() != 2;
    EXPECT_EQ(map[static_cast<std::size_t>(n)] != kNullNode, kept) << w.str();
  }
  // Root degree drops by one, all other interior degrees unchanged.
  EXPECT_EQ(p.degree(ColourSystem::root()), 2);
}

TEST(ColourSystem, PrunedRegularityStatement) {
  // If V is d-regular then prune(V, c) has deg(u) = d except deg(e) = d-1.
  const ColourSystem g = cayley_ball(4, 4);
  const ColourSystem p = g.pruned(1);
  EXPECT_EQ(p.degree(ColourSystem::root()), 3);
  for (NodeId n = 1; n < p.size(); ++n) {
    if (p.depth(n) < p.valid_radius()) {
      EXPECT_EQ(p.degree(n), 4);
    }
  }
}

TEST(ColourSystem, GraftedSplicesSubtrees) {
  // X = K's tree with its c-subtree replaced by L's c-subtree.
  ColourSystem k_sys = path_system(4, {1});
  k_sys.add_child(ColourSystem::root(), 2);  // K has subtrees 1 and 2
  ColourSystem l_sys(4);
  const NodeId l1 = l_sys.add_child(ColourSystem::root(), 2);
  l_sys.add_child(l1, 3);  // L's 2-subtree is deeper

  std::vector<NodeId> self_map, other_map;
  const ColourSystem x = k_sys.grafted(2, l_sys, &self_map, &other_map);
  EXPECT_NE(x.find(Word::parse("1")), kNullNode);       // kept from K
  EXPECT_NE(x.find(Word::parse("2.3")), kNullNode);     // grafted from L
  EXPECT_EQ(x.size(), 4);                               // e, 1, 2, 2.3
  // Maps point where they should.
  EXPECT_EQ(x.word_of(other_map[static_cast<std::size_t>(l1)]).str(), "2");
}

TEST(ColourSystem, GraftedRequiresDonorSubtree) {
  ColourSystem a = path_system(3, {1});
  ColourSystem b = path_system(3, {1});
  EXPECT_THROW(a.grafted(2, b), std::logic_error);
}

TEST(ColourSystem, BallIsTheLocalView) {
  // (v̄V)[h] around a path's midpoint.
  const ColourSystem v = path_system(4, {1, 2, 3, 4});
  const NodeId mid = v.find(Word::parse("1.2"));
  const ColourSystem ball = v.ball(mid, 1);
  EXPECT_EQ(ball.size(), 3);  // mid + two neighbours
  const ColourSystem ball2 = v.ball(mid, 2);
  EXPECT_EQ(ball2.size(), 5);
}

TEST(ColourSystem, BallRespectsTruncationBudget) {
  const ColourSystem g = cayley_ball(3, 4);
  const NodeId n = g.find(Word::parse("1.2"));
  EXPECT_NO_THROW(g.ball(n, 2));
  EXPECT_THROW(g.ball(n, 3), std::logic_error);
}

TEST(ColourSystem, SerializeDistinguishesTrees) {
  const ColourSystem a = path_system(4, {1, 2});
  const ColourSystem b = path_system(4, {1, 3});
  EXPECT_NE(a.serialize(2), b.serialize(2));
  EXPECT_EQ(a.serialize(1), b.serialize(1));  // differ only at depth 2
}

TEST(ColourSystem, EqualToRadiusMatchesPaperNotation) {
  // U[h] = V[h] as used in Theorem 5.
  const ColourSystem u = cayley_ball(3, 4);
  ColourSystem v = cayley_ball(3, 4);
  EXPECT_TRUE(ColourSystem::equal_to_radius(u, v, 4));
  // Modify v at depth 4 only: equal up to 3, different at 4.
  const ColourSystem v3 = v.restricted(3);
  EXPECT_TRUE(ColourSystem::equal_to_radius(u, v3, 3));
  EXPECT_FALSE(ColourSystem::equal_to_radius(u, v3, 4));
}

TEST(ColourSystem, SerializeCanonicalUnderInsertionOrder) {
  // The same tree built in different child orders serialises identically.
  ColourSystem a(4);
  a.add_child(ColourSystem::root(), 1);
  a.add_child(ColourSystem::root(), 3);
  ColourSystem b(4);
  b.add_child(ColourSystem::root(), 3);
  b.add_child(ColourSystem::root(), 1);
  EXPECT_EQ(a.serialize(2), b.serialize(2));
}

TEST(ColourSystem, PathSystemRejectsRepeatedColour) {
  EXPECT_THROW(path_system(3, {1, 1}), std::logic_error);
}

TEST(ColourSystem, NodesUpToIsBfsOrdered) {
  const ColourSystem g = cayley_ball(3, 3);
  int last_depth = 0;
  for (NodeId n : g.nodes_up_to(3)) {
    EXPECT_GE(g.depth(n), last_depth);
    last_depth = g.depth(n);
  }
}


TEST(ColourSystem, Palette255TreesSerialiseAndReportColours) {
  // Colour 255 is the last a gk::Colour can name; a Colour loop counter
  // would wrap to 0 there and never end.
  ColourSystem s(255);
  const NodeId top = s.add_child(ColourSystem::root(), 255);
  s.add_child(ColourSystem::root(), 1);
  s.add_child(ColourSystem::root(), 128);
  s.add_child(top, 254);
  EXPECT_EQ(s.colours_at(ColourSystem::root()), (std::vector<gk::Colour>{1, 128, 255}));
  EXPECT_EQ(s.colours_at(top), (std::vector<gk::Colour>{254, 255}));
  EXPECT_EQ(s.degree(ColourSystem::root()), 3);
  EXPECT_EQ(s.nodes_up_to(2).size(), 5u);
  EXPECT_EQ(s.serialize(2), (std::vector<std::uint8_t>{255, 3, 1, 128, 255, 0, 0, 1, 254, 0xff}));
  EXPECT_EQ(s.rerooted(top).colours_at(ColourSystem::root()),
            (std::vector<gk::Colour>{254, 255}));
  EXPECT_EQ(s.pruned(255).size(), 3);
  const ColourSystem star = cayley_ball(255, 1);
  EXPECT_EQ(star.size(), 256);
  EXPECT_EQ(star.colours_at(ColourSystem::root()).size(), 255u);
  EXPECT_TRUE(star.is_regular(255));
  EXPECT_EQ(star.serialize(1).size(), 1u + 1u + 255u + 255u);
}

TEST(ColourSystem, PaletteBeyond255Throws) {
  EXPECT_THROW(ColourSystem(256), std::invalid_argument);
  EXPECT_THROW(ColourSystem(0), std::invalid_argument);
  EXPECT_NO_THROW(ColourSystem(255));
}

// ---------------------------------------------------------------------------
// serialize_subtree_into's stack-free walk against the stack-based walk it
// replaced, beyond the complete d-regular views of the view catalogues.
// ---------------------------------------------------------------------------

/// The stack-based pre-order walk, kept as the reference: an explicit DFS
/// stack, children pushed in reverse colour order.  Reads the tree through
/// the public API only.
std::vector<std::uint8_t> stack_walk(const ColourSystem& s, NodeId top, int dropped,
                                     int radius) {
  std::vector<std::uint8_t> out{static_cast<std::uint8_t>(s.k())};
  struct Frame {
    NodeId v;
    int depth;
  };
  std::vector<Frame> stack{{top, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.depth == radius) {
      out.push_back(0xff);
      continue;
    }
    const int omitted = f.v == top ? dropped : gk::kNoColour;
    std::vector<std::uint8_t> colours;
    for (int c = 1; c <= s.k(); ++c) {
      if (c != omitted && s.child(f.v, static_cast<gk::Colour>(c)) != kNullNode) {
        colours.push_back(static_cast<std::uint8_t>(c));
      }
    }
    out.push_back(static_cast<std::uint8_t>(colours.size()));
    out.insert(out.end(), colours.begin(), colours.end());
    for (auto c = colours.rbegin(); c != colours.rend(); ++c) {
      stack.push_back({s.child(f.v, *c), f.depth + 1});
    }
  }
  return out;
}

std::vector<std::uint8_t> walk(const ColourSystem& s, NodeId top, int dropped, int radius) {
  std::vector<std::uint8_t> out;
  s.serialize_subtree_into(top, static_cast<gk::Colour>(dropped), radius, out);
  return out;
}

int max_depth(const ColourSystem& s) {
  int deepest = 0;
  for (NodeId v = 0; v < s.size(); ++v) deepest = std::max(deepest, s.depth(v));
  return deepest;
}

TEST(SubtreeWalk, MatchesTheStackWalkOnRandomIrregularTrees) {
  // Every top, every dropped colour (none, each of top's child colours, and
  // the colours top lacks, its parent colour among them), every radius from
  // 0 to past the deepest leaf.
  Rng rng(2718);
  int absent_drops = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int k = static_cast<int>(rng.uniform(2, 6));
    const ColourSystem s = random_system(rng, k, static_cast<int>(rng.uniform(1, 40)));
    const int deepest = max_depth(s);
    for (NodeId top = 0; top < s.size(); ++top) {
      for (int dropped = gk::kNoColour; dropped <= k; ++dropped) {
        if (dropped != gk::kNoColour &&
            s.child(top, static_cast<gk::Colour>(dropped)) == kNullNode) {
          ++absent_drops;
        }
        for (int radius = 0; radius <= deepest + 1; ++radius) {
          ASSERT_EQ(walk(s, top, dropped, radius), stack_walk(s, top, dropped, radius))
              << "trial " << trial << " top " << top << " dropped " << dropped << " radius "
              << radius;
        }
      }
    }
  }
  EXPECT_GT(absent_drops, 0);
}

TEST(SubtreeWalk, MatchesTheStackWalkOnTruncatedSystems) {
  // Truncated systems, one of them re-rooted so that it holds nodes below
  // its faithful radius: the walk reads up to valid_radius and throws past
  // it.
  std::vector<ColourSystem> systems;
  systems.push_back(regular_system(3, 3, 3));
  systems.push_back(regular_system(4, 3, 3));
  systems.push_back(regular_system(4, 2, 5));
  systems.push_back(regular_system(3, 3, 4).rerooted(5));
  for (const ColourSystem& s : systems) {
    ASSERT_FALSE(s.is_exact());
    for (NodeId top = 0; top < s.size(); ++top) {
      for (int dropped = gk::kNoColour; dropped <= s.k(); ++dropped) {
        const int budget = s.valid_radius() - s.depth(top);
        for (int radius = 0; radius <= budget; ++radius) {
          ASSERT_EQ(walk(s, top, dropped, radius), stack_walk(s, top, dropped, radius))
              << "top " << top << " dropped " << dropped << " radius " << radius;
        }
        EXPECT_THROW(walk(s, top, dropped, std::max(budget, 0) + 1), std::logic_error);
      }
    }
  }
}

TEST(SubtreeWalk, WalksA20000DeepPathAtFullRadius) {
  constexpr int kDepth = 20000;
  std::vector<gk::Colour> colours(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    colours[static_cast<std::size_t>(i)] = static_cast<gk::Colour>(1 + i % 3);
  }
  const ColourSystem path = path_system(3, colours);
  ASSERT_EQ(max_depth(path), kDepth);
  // Full radius: each internal node is a count and a colour, the deepest
  // node a truncation marker; one level more makes it a count-0 leaf.
  const std::vector<std::uint8_t> full = walk(path, ColourSystem::root(), gk::kNoColour, kDepth);
  EXPECT_EQ(full.size(), 1u + 2u * kDepth + 1u);
  EXPECT_EQ(full, stack_walk(path, ColourSystem::root(), gk::kNoColour, kDepth));
  EXPECT_EQ(walk(path, ColourSystem::root(), gk::kNoColour, kDepth + 1),
            stack_walk(path, ColourSystem::root(), gk::kNoColour, kDepth + 1));
  // From the middle, and with the only child dropped at the top.
  const NodeId middle = kDepth / 2;  // path_system numbers its nodes by depth
  ASSERT_EQ(path.depth(middle), kDepth / 2);
  EXPECT_EQ(walk(path, middle, gk::kNoColour, kDepth / 2),
            stack_walk(path, middle, gk::kNoColour, kDepth / 2));
  const int next = colours[kDepth / 2];
  EXPECT_EQ(walk(path, middle, next, kDepth / 2), (std::vector<std::uint8_t>{3, 0}));
}

}  // namespace
}  // namespace dmm::colsys
