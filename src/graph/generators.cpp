#include "graph/generators.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace dmm::graph {

namespace {

/// Validates an (already 64-bit) node count against the NodeIndex range and
/// narrows it.  Centralised so every generator fails the same way instead
/// of wrapping: at 10⁷-scale the products below are legitimate, it is the
/// silent truncation to 32 bits that was the latent bug.
NodeIndex checked_node_count(std::int64_t n, const char* who) {
  if (n < 0 || n > static_cast<std::int64_t>(std::numeric_limits<NodeIndex>::max())) {
    throw std::invalid_argument(std::string(who) +
                                ": node count does not fit a 32-bit NodeIndex (got " +
                                std::to_string(n) + ")");
  }
  return static_cast<NodeIndex>(n);
}

/// Same guard for edge counts (edges_ is indexed through int edge_count()).
void check_edge_count(std::int64_t m, const char* who) {
  if (m < 0 || m > static_cast<std::int64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument(std::string(who) +
                                ": edge count does not fit 32 bits (got " +
                                std::to_string(m) + ")");
  }
}

/// Bounds one factor of a node/edge-count product to the NodeIndex range
/// *before* the multiply: two factors ≤ 2³¹ multiply to ≤ 2⁶² < INT64_MAX,
/// so the subsequent int64 product can never itself overflow (signed
/// overflow is UB — the guard must not commit the crime it polices).
std::int64_t checked_dimension(std::int64_t value, const char* who) {
  if (value < 0 || value > static_cast<std::int64_t>(std::numeric_limits<NodeIndex>::max())) {
    throw std::invalid_argument(std::string(who) + ": dimension out of range (got " +
                                std::to_string(value) + ")");
  }
  return value;
}

}  // namespace

EdgeColouredGraph path_graph(int k, const std::vector<Colour>& colours) {
  const NodeIndex n =
      checked_node_count(static_cast<std::int64_t>(colours.size()) + 1, "path_graph");
  EdgeColouredGraph g(n, k);
  for (std::size_t i = 0; i < colours.size(); ++i) {
    g.add_edge(static_cast<NodeIndex>(i), static_cast<NodeIndex>(i + 1), colours[i]);
  }
  return g;
}

WorstCase worst_case_chain(int k) {
  if (k < 2) throw std::invalid_argument("worst_case_chain: k must be >= 2");
  std::vector<Colour> long_colours, short_colours;
  for (int c = 1; c <= k; ++c) long_colours.push_back(static_cast<Colour>(c));
  for (int c = 2; c <= k; ++c) short_colours.push_back(static_cast<Colour>(c));
  WorstCase out{path_graph(k, long_colours), path_graph(k, short_colours),
                static_cast<NodeIndex>(k), static_cast<NodeIndex>(k - 1)};
  return out;
}

EdgeColouredGraph figure1_graph() {
  // A k = 4 instance in the spirit of Figure 1: a 12-cycle alternating
  // colours {1,2} with chords of colours {3,4}, plus an outer layer of
  // pendant paths, so that every colour class is non-trivial and the greedy
  // algorithm takes all three rounds.
  EdgeColouredGraph g(26, 4);
  // Inner 12-cycle, alternating 1/2.
  for (int i = 0; i < 12; ++i) {
    g.add_edge(i, (i + 1) % 12, static_cast<Colour>(i % 2 == 0 ? 1 : 2));
  }
  // Chords of colour 3 across the cycle, and colour 4 "spokes" to an outer
  // ring of pendant nodes 12..23.
  for (int i = 0; i < 12; i += 4) {
    g.add_edge(i, i + 2, 3);
  }
  for (int i = 0; i < 12; ++i) {
    g.add_edge(i, 12 + i, 4);
  }
  // Two extra tail nodes giving colour-3 edges in the outer layer.
  g.add_edge(12, 24, 3);
  g.add_edge(18, 25, 3);
  return g;
}

EdgeColouredGraph random_coloured_graph(std::int64_t n, int k, double density, Rng& rng) {
  if (density < 0.0 || density > 1.0) {
    throw std::invalid_argument("random_coloured_graph: density must be in [0,1]");
  }
  const NodeIndex nodes = checked_node_count(n, "random_coloured_graph");
  check_edge_count(static_cast<std::int64_t>(k) * (n / 2), "random_coloured_graph");
  EdgeColouredGraph g(nodes, k);
  std::vector<NodeIndex> order(static_cast<std::size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int c = 1; c <= k; ++c) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (std::int64_t i = 0; i + 1 < n; i += 2) {
      // Two colour classes may randomly propose the same pair; simple
      // graphs take it once.
      if (rng.chance(density) && !g.has_edge(order[static_cast<std::size_t>(i)],
                                             order[static_cast<std::size_t>(i + 1)])) {
        g.add_edge(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i + 1)], c);
      }
    }
  }
  return g;
}

EdgeColouredGraph hypercube(int dimensions) {
  if (dimensions < 1 || dimensions > 20) {
    throw std::invalid_argument("hypercube: dimensions must be in [1,20]");
  }
  const int n = 1 << dimensions;
  EdgeColouredGraph g(n, dimensions);
  for (int v = 0; v < n; ++v) {
    for (int dim = 0; dim < dimensions; ++dim) {
      const int u = v ^ (1 << dim);
      if (v < u) g.add_edge(v, u, static_cast<Colour>(dim + 1));
    }
  }
  return g;
}

EdgeColouredGraph complete_bipartite(std::int64_t d) {
  if (d < 1) throw std::invalid_argument("complete_bipartite: d must be >= 1");
  checked_dimension(d, "complete_bipartite");  // 2d and d² now fit int64
  const NodeIndex nodes = checked_node_count(2 * d, "complete_bipartite");
  check_edge_count(d * d, "complete_bipartite");  // d² edges: 64-bit product
  EdgeColouredGraph g(nodes, static_cast<int>(d));
  for (std::int64_t i = 0; i < d; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      g.add_edge(static_cast<NodeIndex>(i), static_cast<NodeIndex>(d + j),
                 static_cast<Colour>((i + j) % d + 1));
    }
  }
  return g;
}

EdgeColouredGraph alternating_cycle(int k, std::int64_t m, Colour c1, Colour c2) {
  if (m < 2) throw std::invalid_argument("alternating_cycle: need length >= 4");
  if (c1 == c2) throw std::invalid_argument("alternating_cycle: colours must differ");
  checked_dimension(m, "alternating_cycle");  // 2m now fits int64
  const NodeIndex nodes = checked_node_count(2 * m, "alternating_cycle");
  EdgeColouredGraph g(nodes, k);
  for (NodeIndex i = 0; i < nodes; ++i) {
    g.add_edge(i, static_cast<NodeIndex>((i + 1) % nodes), i % 2 == 0 ? c1 : c2);
  }
  return g;
}

EdgeColouredGraph grid_graph(std::int64_t width, std::int64_t height, bool wrap) {
  if (width < 2 || height < 1) throw std::invalid_argument("grid_graph: too small");
  if (wrap && (width % 2 != 0 || height % 2 != 0 || height < 2)) {
    throw std::invalid_argument("grid_graph: torus needs even width and height");
  }
  // width·height in 64 bits *before* any narrowing: grid_graph(65536, 65536)
  // used to be a silent int overflow, now it throws.  Each factor is
  // bounded first so the int64 product itself cannot overflow.
  checked_dimension(width, "grid_graph");
  checked_dimension(height, "grid_graph");
  const NodeIndex nodes = checked_node_count(width * height, "grid_graph");
  check_edge_count(2 * static_cast<std::int64_t>(nodes), "grid_graph");  // ≤ 2 edges/node
  EdgeColouredGraph g(nodes, 4);
  const auto id = [width](std::int64_t x, std::int64_t y) {
    return static_cast<NodeIndex>(y * width + x);  // 64-bit product, then narrow
  };
  for (std::int64_t y = 0; y < height; ++y) {
    for (std::int64_t x = 0; x < width; ++x) {
      // Horizontal edge to the right: colour 1 when x is even, else 2.
      if (x + 1 < width) {
        g.add_edge(id(x, y), id(x + 1, y), static_cast<Colour>(x % 2 == 0 ? 1 : 2));
      } else if (wrap) {
        g.add_edge(id(x, y), id(0, y), static_cast<Colour>(x % 2 == 0 ? 1 : 2));
      }
      // Vertical edge downwards: colour 3 when y is even, else 4.
      if (y + 1 < height) {
        g.add_edge(id(x, y), id(x, y + 1), static_cast<Colour>(y % 2 == 0 ? 3 : 4));
      } else if (wrap && height > 1) {
        g.add_edge(id(x, y), id(x, 0), static_cast<Colour>(y % 2 == 0 ? 3 : 4));
      }
    }
  }
  return g;
}

EdgeColouredGraph star_graph(int leaves) {
  if (leaves < 1 || leaves > 255) {
    // Colour is std::uint8_t: a proper colouring needs `leaves` distinct
    // hub colours, so 255 is the model's hard degree cap.
    throw std::invalid_argument("star_graph: leaves must be in [1,255]");
  }
  EdgeColouredGraph g(leaves + 1, leaves);
  for (int i = 0; i < leaves; ++i) {
    g.add_edge(0, static_cast<NodeIndex>(1 + i), static_cast<Colour>(i + 1));
  }
  return g;
}

EdgeColouredGraph hub_cluster_graph(std::int64_t hubs, int hub_degree, int first_colour) {
  if (hubs < 1) throw std::invalid_argument("hub_cluster_graph: hubs must be >= 1");
  if (hub_degree < 1) throw std::invalid_argument("hub_cluster_graph: hub_degree must be >= 1");
  if (first_colour < 1 || first_colour + hub_degree - 1 > 255) {
    throw std::invalid_argument(
        "hub_cluster_graph: colours first_colour..first_colour+hub_degree-1 must fit [1,255]");
  }
  checked_dimension(hubs, "hub_cluster_graph");
  const std::int64_t per_hub = static_cast<std::int64_t>(hub_degree) + 1;
  const NodeIndex nodes = checked_node_count(hubs * per_hub, "hub_cluster_graph");
  check_edge_count(hubs * hub_degree, "hub_cluster_graph");
  const int k = first_colour + hub_degree - 1;
  // Hubs first (nodes 0..hubs-1) so the skew sits in one contiguous
  // node-index run; leaves are port-major interleaved after them (hub h's
  // port-j leaf is node hubs + j·hubs + h).  Built through the bulk
  // constructor: add_edge's per-edge properness scan is O(deg) and would
  // make each hub O(d²).
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(hubs) * static_cast<std::size_t>(hub_degree));
  for (std::int64_t h = 0; h < hubs; ++h) {
    for (int j = 0; j < hub_degree; ++j) {
      const std::int64_t leaf = hubs + static_cast<std::int64_t>(j) * hubs + h;
      edges.push_back({static_cast<NodeIndex>(h), static_cast<NodeIndex>(leaf),
                       static_cast<Colour>(first_colour + j)});
    }
  }
  return EdgeColouredGraph(static_cast<int>(nodes), k, std::move(edges));
}

EdgeColouredGraph to_graph(const colsys::ColourSystem& system) {
  EdgeColouredGraph g(system.size(), system.k());
  for (colsys::NodeId v = 1; v < system.size(); ++v) {
    g.add_edge(static_cast<NodeIndex>(system.parent(v)), static_cast<NodeIndex>(v),
               system.parent_colour(v));
  }
  return g;
}

}  // namespace dmm::graph
