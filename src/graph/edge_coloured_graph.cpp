#include "graph/edge_coloured_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dmm::graph {

EdgeColouredGraph::EdgeColouredGraph(int n, int k) : k_(k) {
  if (n < 0) throw std::invalid_argument("EdgeColouredGraph: negative node count");
  if (k < 1) throw std::invalid_argument("EdgeColouredGraph: k must be >= 1");
  adjacency_.resize(static_cast<std::size_t>(n));
}

EdgeColouredGraph::EdgeColouredGraph(int n, int k, std::vector<Edge> edges)
    : EdgeColouredGraph(n, k) {
  if (edges.size() >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("EdgeColouredGraph: edge count would exceed 32 bits");
  }
  // Per-edge checks first (cheap, no sort needed).
  for (const Edge& e : edges) {
    check_node(e.u);
    check_node(e.v);
    if (e.u == e.v) throw std::invalid_argument("EdgeColouredGraph: self-loops not allowed");
    if (e.colour < 1 || e.colour > k_) {
      throw std::invalid_argument("EdgeColouredGraph: colour out of range");
    }
  }
  // Properness and simplicity via one sorted half-edge list: a colour
  // reused at a node and a parallel edge both show up as an adjacent
  // duplicate under the right sort key.
  struct Half3 {
    NodeIndex at;
    NodeIndex to;
    Colour colour;
  };
  std::vector<Half3> halves;
  halves.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    halves.push_back({e.u, e.v, e.colour});
    halves.push_back({e.v, e.u, e.colour});
  }
  std::sort(halves.begin(), halves.end(), [](const Half3& a, const Half3& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.colour != b.colour) return a.colour < b.colour;
    return a.to < b.to;
  });
  for (std::size_t i = 1; i < halves.size(); ++i) {
    if (halves[i].at != halves[i - 1].at) continue;
    if (halves[i].colour == halves[i - 1].colour) {
      throw std::logic_error("EdgeColouredGraph: colour already used at node");
    }
    if (halves[i].to == halves[i - 1].to) {
      throw std::logic_error("EdgeColouredGraph: parallel edge");
    }
  }
  // Parallel edges of *different* colours sort apart under (at, colour);
  // re-check under (at, to).
  std::sort(halves.begin(), halves.end(), [](const Half3& a, const Half3& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.to < b.to;
  });
  for (std::size_t i = 1; i < halves.size(); ++i) {
    if (halves[i].at == halves[i - 1].at && halves[i].to == halves[i - 1].to) {
      throw std::logic_error("EdgeColouredGraph: parallel edge");
    }
  }
  // Adjacency in one pass with exact per-node reserves (add_edge's
  // push_back growth doubles allocations on hub rows).
  std::vector<std::size_t> deg(adjacency_.size(), 0);
  for (const Half3& h : halves) ++deg[static_cast<std::size_t>(h.at)];
  for (std::size_t v = 0; v < adjacency_.size(); ++v) adjacency_[v].reserve(deg[v]);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const auto slot = static_cast<std::int32_t>(i);
    adjacency_[static_cast<std::size_t>(e.u)].push_back({e.v, slot, e.colour});
    adjacency_[static_cast<std::size_t>(e.v)].push_back({e.u, slot, e.colour});
  }
  edges_ = std::move(edges);
}

void EdgeColouredGraph::check_node(NodeIndex v) const {
  if (v < 0 || v >= node_count()) throw std::out_of_range("EdgeColouredGraph: bad node index");
}

void EdgeColouredGraph::add_edge(NodeIndex u, NodeIndex v, Colour colour) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("EdgeColouredGraph: self-loops not allowed");
  if (colour < 1 || colour > k_) throw std::invalid_argument("EdgeColouredGraph: colour out of range");
  for (const HalfEdge& h : adjacency_[u]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at u");
    if (h.to == v) throw std::logic_error("EdgeColouredGraph: parallel edge");
  }
  for (const HalfEdge& h : adjacency_[v]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at v");
  }
  // edge_count() narrows to int; refuse the edge that would wrap it rather
  // than let a 10⁷-scale generator corrupt the count silently.
  if (edges_.size() >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("EdgeColouredGraph: edge count would exceed 32 bits");
  }
  const auto slot = static_cast<std::int32_t>(edges_.size());
  adjacency_[u].push_back({v, slot, colour});
  adjacency_[v].push_back({u, slot, colour});
  edges_.push_back({u, v, colour});
}

void EdgeColouredGraph::remove_edge(NodeIndex u, NodeIndex v) {
  check_node(u);
  check_node(v);
  auto& at_u = adjacency_[static_cast<std::size_t>(u)];
  auto& at_v = adjacency_[static_cast<std::size_t>(v)];
  const auto to = [](NodeIndex w) { return [w](const HalfEdge& h) { return h.to == w; }; };
  const auto hu = std::find_if(at_u.begin(), at_u.end(), to(v));
  if (hu == at_u.end()) throw std::invalid_argument("EdgeColouredGraph: remove_edge on a non-edge");
  const auto hv = std::find_if(at_v.begin(), at_v.end(), to(u));
  // Checked before anything moves, so a mismatch leaves the graph as it was.
  const std::int32_t slot = hu->slot;
  const auto last = static_cast<std::int32_t>(edges_.size()) - 1;
  const auto holds_uv = [&](const Edge& e) {
    return (e.u == u && e.v == v) || (e.u == v && e.v == u);
  };
  if (hv == at_v.end() || hv->slot != slot || slot < 0 || slot > last ||
      !holds_uv(edges_[static_cast<std::size_t>(slot)])) {
    throw std::logic_error("EdgeColouredGraph: adjacency/edge-list mismatch");
  }
  Edge& freed = edges_[static_cast<std::size_t>(slot)];
  *hu = at_u.back();
  at_u.pop_back();
  *hv = at_v.back();
  at_v.pop_back();
  // The last edge moves into the freed slot; re-point its two half-edges.
  if (slot != last) {
    freed = edges_.back();
    for (const NodeIndex end : {freed.u, freed.v}) {
      for (HalfEdge& h : adjacency_[static_cast<std::size_t>(end)]) {
        if (h.slot == last) h.slot = slot;
      }
    }
  }
  edges_.pop_back();
}

std::optional<Colour> EdgeColouredGraph::edge_colour(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const HalfEdge& h : adjacency_[static_cast<std::size_t>(u)]) {
    if (h.to == v) return h.colour;
  }
  return std::nullopt;
}

bool EdgeColouredGraph::has_edge(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const HalfEdge& h : adjacency_[u]) {
    if (h.to == v) return true;
  }
  return false;
}

std::optional<NodeIndex> EdgeColouredGraph::neighbour(NodeIndex v, Colour c) const {
  check_node(v);
  for (const HalfEdge& h : adjacency_[v]) {
    if (h.colour == c) return h.to;
  }
  return std::nullopt;
}

std::vector<Colour> EdgeColouredGraph::incident_colours(NodeIndex v) const {
  check_node(v);
  std::vector<Colour> out;
  out.reserve(adjacency_[v].size());
  for (const HalfEdge& h : adjacency_[v]) out.push_back(h.colour);
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const HalfEdge> EdgeColouredGraph::half_edges(NodeIndex v) const {
  check_node(v);
  return adjacency_[static_cast<std::size_t>(v)];
}

int EdgeColouredGraph::degree(NodeIndex v) const {
  check_node(v);
  return static_cast<int>(adjacency_[v].size());
}

int EdgeColouredGraph::max_degree() const {
  int d = 0;
  for (NodeIndex v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

bool EdgeColouredGraph::is_properly_coloured() const {
  for (const auto& halves : adjacency_) {
    std::vector<Colour> colours;
    for (const HalfEdge& h : halves) colours.push_back(h.colour);
    std::sort(colours.begin(), colours.end());
    if (std::adjacent_find(colours.begin(), colours.end()) != colours.end()) return false;
  }
  return true;
}

std::string EdgeColouredGraph::str() const {
  std::string out = "graph n=" + std::to_string(node_count()) + " k=" + std::to_string(k_) + "\n";
  for (const Edge& e : edges_) {
    out += "  " + std::to_string(e.u) + " -" + std::to_string(static_cast<int>(e.colour)) + "- " +
           std::to_string(e.v) + "\n";
  }
  return out;
}

}  // namespace dmm::graph
