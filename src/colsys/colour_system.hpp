// Colour systems (paper §2.2): prefix-closed subsets V ⊆ G_k, represented as
// explicit rooted edge-coloured trees Γ_k(V).
//
// A node of the tree corresponds to an element v ∈ V; the root is the
// identity e; the edge between pred(v) and v carries colour tail(v).  The
// representation supports every operation the lower-bound construction of
// Section 3 needs:
//
//   * V[h]           — restricted(h)
//   * ūV (Lemma 3)   — rerooted(u), which also reports the node relabelling
//                      so that functions on V (such as a template's τ) can be
//                      transported
//   * prune(V, c)    — pruned(c)
//   * K₁ ∪ L₁ (§3.9) — grafted(c, L): subtree surgery at the root
//   * (v̄V)[h]        — ball(v, h)
//
// Truncation bookkeeping.  Most colour systems in the paper are infinite
// (e.g. Γ_k itself, or any d-regular system with d ≥ 2).  We store finite
// truncations together with a `valid_radius`: the structure is faithful for
// every node at depth ≤ valid_radius, and every node at depth < valid_radius
// has all of its true children materialised.  Finite systems that are known
// exactly (such as Z = {e} or the base-case systems {e, c2}) use
// kExactRadius.  Every operation computes the valid radius of its result;
// use-sites that would read beyond the faithful region throw instead of
// silently returning boundary-polluted data.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gk/word.hpp"

namespace dmm::colsys {

using gk::Colour;
using NodeId = std::int32_t;

inline constexpr NodeId kNullNode = -1;

/// valid_radius value meaning "this finite system is represented exactly".
inline constexpr int kExactRadius = std::numeric_limits<int>::max();

class ColourSystem {
 public:
  /// The singleton system Z = {e}.  Requires 1 ≤ k ≤ gk::kMaxColours.
  explicit ColourSystem(int k, int valid_radius = kExactRadius);

  int k() const noexcept { return k_; }
  int size() const noexcept { return static_cast<int>(nodes_.size()); }
  int valid_radius() const noexcept { return valid_radius_; }
  bool is_exact() const noexcept { return valid_radius_ == kExactRadius; }

  static constexpr NodeId root() noexcept { return 0; }

  NodeId parent(NodeId v) const { return nodes_[check(v)].parent; }
  /// Colour of the edge towards the parent, i.e. tail(v).  kNoColour for e.
  Colour parent_colour(NodeId v) const { return nodes_[check(v)].pcolour; }
  int depth(NodeId v) const { return nodes_[check(v)].depth; }

  /// Child of v along colour c, or kNullNode.
  NodeId child(NodeId v, Colour c) const;

  /// Neighbour of v along colour c (parent or child), or kNullNode.
  NodeId neighbour(NodeId v, Colour c) const;

  /// Appends a child; used by builders.  Throws if the slot is taken or the
  /// colour equals the parent colour (words must stay reduced).
  NodeId add_child(NodeId v, Colour c);

  /// Reserves room for `nodes` nodes in total, so a builder that knows its
  /// tree's size grows it by add_child without reallocating.
  void reserve(int nodes);

  /// C(V, v): the sorted set of colours incident to v in Γ_k(V).
  std::vector<Colour> colours_at(NodeId v) const;

  /// deg(V, v) = |C(V, v)|.
  int degree(NodeId v) const;

  /// Locates the node for a group element, or kNullNode if absent.
  NodeId find(const gk::Word& w) const;

  /// The group element this node represents (root-to-node colour word).
  gk::Word word_of(NodeId v) const;

  /// All nodes with depth ≤ h, in BFS order (root first).
  std::vector<NodeId> nodes_up_to(int h) const;

  /// True iff every interior node (depth < valid_radius; all nodes when
  /// exact) has degree exactly d.  This is the paper's d-regularity,
  /// restricted to the faithful region of the truncation.
  bool is_regular(int d) const;

  /// V[h].  Requires h ≤ valid_radius.  The result is exact (it is a
  /// faithful representation of the finite system V[h]).  `old_to_new`, if
  /// non-null, receives the relabelling.
  ColourSystem restricted(int h, std::vector<NodeId>* old_to_new = nullptr) const;

  /// ūV where u = word_of(y) (Lemma 3): the same tree re-rooted at y.  All
  /// stored nodes are kept; valid_radius becomes valid_radius - depth(y)
  /// (exact stays exact).  `old_to_new` receives the relabelling.
  ColourSystem rerooted(NodeId y, std::vector<NodeId>* old_to_new = nullptr) const;

  /// prune(V, c) (§2.2): drops the subtree hanging off the root's c-child.
  /// Requires c ∈ C(V, e).  `old_to_new` receives the relabelling.
  ColourSystem pruned(Colour c, std::vector<NodeId>* old_to_new = nullptr) const;

  /// Root-level graft (the X = K₁ ∪ L₁ step of §3.9): returns the system
  /// whose root subtrees are this system's subtrees except along colour c,
  /// where the subtree is taken from `other` (which must have a c-child at
  /// its root).  Relabellings for both sources are reported.
  ColourSystem grafted(Colour c, const ColourSystem& other,
                       std::vector<NodeId>* self_to_new = nullptr,
                       std::vector<NodeId>* other_to_new = nullptr) const;

  /// (v̄V)[radius]: the ball of the given radius around v, as an exact
  /// colour system rooted at v.  Requires depth(v) + radius ≤ valid_radius.
  ColourSystem ball(NodeId v, int radius) const;

  /// π·V: the same tree with every edge colour c relabelled to perm[c].
  /// `perm` must be a bijection of [k] given as a (k+1)-vector with
  /// perm[0] == kNoColour (see colsys::ColourPerm).  Children are
  /// re-inserted in relabelled colour order, so serialisations of the
  /// result are canonical.
  ColourSystem permuted(const std::vector<Colour>& perm) const;

  /// Canonical byte serialisation of V[radius] (children visited in colour
  /// order), suitable for hashing and equality of rooted coloured trees.
  /// Requires radius ≤ valid_radius.
  std::vector<std::uint8_t> serialize(int radius) const;

  /// Appends the bytes of serialize(radius) to `out`; reusing one buffer
  /// across calls avoids the per-call allocation of serialize.
  void serialize_into(int radius, std::vector<std::uint8_t>& out) const;

  /// Appends the canonical serialisation of the subtree hanging at `top`
  /// (the edge towards top's parent removed), cut `radius` levels below
  /// `top`; `dropped`, when not kNoColour, names one child colour of `top`
  /// to omit.  The bytes equal what
  ///   rerooted(top).pruned(tail)…restricted(radius).serialize(radius)
  /// produced in the seed pipeline, but no intermediate trees are built —
  /// this is what makes the compatible-pair index allocation-free per
  /// lookup.  The walk keeps no stack, so it allocates nothing beyond `out`
  /// and works at any depth.  Requires depth(top) + radius ≤ valid_radius.
  void serialize_subtree_into(NodeId top, Colour dropped, int radius,
                              std::vector<std::uint8_t>& out) const;

  /// Structural equality of U[h] and V[h] (paper's U[h] = V[h]).
  static bool equal_to_radius(const ColourSystem& a, const ColourSystem& b, int h);

  /// Multi-line ASCII rendering (for examples and failure messages).
  std::string str(int max_depth = 6) const;

 private:
  struct Node {
    NodeId parent = kNullNode;
    Colour pcolour = gk::kNoColour;
    std::int32_t depth = 0;
  };

  NodeId check(NodeId v) const;
  void require_within(int radius, const char* what) const;

  /// Index into the flat children slab; computed in std::size_t *before*
  /// the multiply so a 10⁷-node k = 6 tree (6·10⁷ slots) can never wrap a
  /// 32-bit intermediate.
  std::size_t child_slot(NodeId v, Colour c) const noexcept {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(c) - 1;
  }

  int k_ = 0;
  int valid_radius_ = kExactRadius;
  std::vector<Node> nodes_;
  // Child per (node, colour), k_ slots per node in one contiguous slab
  // (kNullNode when absent).  Keeping this out of Node removes the
  // per-node heap allocation that dominated building the adversary's
  // ~10⁷-node k = 6 template trees.
  std::vector<NodeId> children_;
};

/// Builds the truncation Γ_k[depth] of the full Cayley graph (k-regular).
ColourSystem cayley_ball(int k, int depth);

/// Builds a d-regular k-colour system truncated to `depth`: each node uses
/// its parent colour plus the smallest d-1 other colours.  For d = k this is
/// cayley_ball.  Requires 0 ≤ d ≤ k (d = 0 gives Z exactly).
ColourSystem regular_system(int k, int d, int depth);

/// Builds the colour system of a simple path e - c1 - c1c2 - ... (finite,
/// exact).  Consecutive colours must differ.
ColourSystem path_system(int k, const std::vector<Colour>& colours);

}  // namespace dmm::colsys
