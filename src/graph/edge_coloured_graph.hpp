// Finite, anonymous, properly edge-coloured graphs (the paper's problem
// instances and network topologies, §1.2).
//
// Node indices exist only as simulation handles: no algorithm in this
// library may branch on them (anonymity).  The initial knowledge of a node
// is exactly the multiset of colours on its incident edges, as in §2.3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gk/word.hpp"

namespace dmm::graph {

using gk::Colour;
using NodeIndex = std::int32_t;

struct Edge {
  NodeIndex u = 0;
  NodeIndex v = 0;
  Colour colour = gk::kNoColour;
};

/// One endpoint's view of an edge: the node at the other end, the edge's
/// index in edges() (its slot), and its colour.
struct HalfEdge {
  NodeIndex to = 0;
  std::int32_t slot = 0;
  Colour colour = gk::kNoColour;
};

class EdgeColouredGraph {
 public:
  /// An empty graph on n nodes with palette [k].
  EdgeColouredGraph(int n, int k);

  /// Bulk construction: takes the whole edge list at once and validates it
  /// in O(m log m) by sorting the half-edge list, instead of add_edge's
  /// O(deg) linear scan per edge — which is O(d²) per node and makes
  /// hub-heavy (star / power-law) instances quadratic to build.  Throws
  /// exactly the same errors as the add_edge path would (bad node index,
  /// self-loop, colour out of range, colour reused at an endpoint,
  /// parallel edge), just not necessarily on the same offending edge.
  EdgeColouredGraph(int n, int k, std::vector<Edge> edges);

  int node_count() const noexcept { return static_cast<int>(adjacency_.size()); }
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }
  int k() const noexcept { return k_; }

  /// Adds the edge {u, v} with the given colour.  Throws if the colouring
  /// would stop being proper at either endpoint, if u == v, or if the edge
  /// already exists.
  void add_edge(NodeIndex u, NodeIndex v, Colour colour);

  /// Removes the edge {u, v} (given in either orientation; the colour is
  /// whatever the live edge carries).  Throws std::invalid_argument when no
  /// such edge exists, and std::logic_error, with the graph unchanged, if
  /// the half-edges and the edge list disagree.  The colouring stays
  /// proper by construction — removing an edge can only free colours.
  /// Cost: O(deg(u) + deg(v) + deg(a) + deg(b)) = O(Δ), where {a, b} is
  /// the last edge of edges(); nothing scans the edge list.  Order
  /// contract: if {u, v} sits at edges()[i], the last edge moves into slot
  /// i and the list shrinks by one (edges()[i] = edges().back(), then
  /// pop); the half-edge lists of u and v are swap-popped the same way.
  /// Callers indexing into edges() must re-read after a removal.
  void remove_edge(NodeIndex u, NodeIndex v);

  /// Colour of the edge {u, v}, if present (either orientation).
  std::optional<Colour> edge_colour(NodeIndex u, NodeIndex v) const;

  /// Neighbour of v along colour c, if any.
  std::optional<NodeIndex> neighbour(NodeIndex v, Colour c) const;

  /// True iff {u, v} is already an edge (of any colour).
  bool has_edge(NodeIndex u, NodeIndex v) const;

  /// Sorted colours incident to v (the node's entire initial knowledge).
  std::vector<Colour> incident_colours(NodeIndex v) const;

  /// v's half-edges in adjacency order (insertion order, permuted by
  /// removals' swap-pops; not colour order).  Valid until the next
  /// add_edge or remove_edge.
  std::span<const HalfEdge> half_edges(NodeIndex v) const;

  int degree(NodeIndex v) const;
  int max_degree() const;

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Checks that no node has two incident edges of the same colour.  Always
  /// true for graphs built through add_edge; exposed for generator tests.
  bool is_properly_coloured() const;

  std::string str() const;

 private:
  void check_node(NodeIndex v) const;

  int k_;
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace dmm::graph
