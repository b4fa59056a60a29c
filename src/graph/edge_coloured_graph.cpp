#include "graph/edge_coloured_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace dmm::graph {

namespace {

/// Builds the CSR (the only code that does): each adjacency row copied
/// into its slot range and insertion-sorted by colour (rows hold at most
/// k ≤ 255 entries).  The colouring is proper, so the colour order —
/// hence the whole layout — is unique, whatever order add_edge and
/// remove_edge left the rows in.
Csr build_csr(const std::vector<std::vector<HalfEdge>>& adjacency) {
  std::vector<int> degrees(adjacency.size());
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    degrees[v] = static_cast<int>(adjacency[v].size());
  }
  Csr csr;
  csr.row = csr_row_offsets(degrees);
  csr.port_colour.resize(csr.row.back());
  csr.peer_node.resize(csr.row.back());
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    const std::size_t begin = csr.row[v];
    std::size_t end = begin;
    for (const HalfEdge& h : adjacency[v]) {
      std::size_t j = end++;
      for (; j > begin && csr.port_colour[j - 1] > h.colour; --j) {
        csr.port_colour[j] = csr.port_colour[j - 1];
        csr.peer_node[j] = csr.peer_node[j - 1];
      }
      csr.port_colour[j] = h.colour;
      csr.peer_node[j] = h.to;
    }
  }
  return csr;
}

}  // namespace

std::vector<std::size_t> csr_row_offsets(const std::vector<int>& degrees) {
  std::vector<std::size_t> offsets(degrees.size() + 1, 0);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    if (degrees[v] < 0) throw std::invalid_argument("csr_row_offsets: negative degree");
    offsets[v + 1] = offsets[v] + static_cast<std::size_t>(degrees[v]);
  }
  return offsets;
}

EdgeColouredGraph::Storage::Storage(int n, int k)
    : k(k), adjacency(static_cast<std::size_t>(n)) {}

EdgeColouredGraph::Storage::Storage(const Storage& other)
    : k(other.k), adjacency(other.adjacency), edges(other.edges) {}

EdgeColouredGraph::Storage* EdgeColouredGraph::empty_storage() noexcept {
  // Immortal: its own reference is never released, so moves never allocate.
  static Storage* const empty = new Storage(0, 1);
  empty->refs.fetch_add(1, std::memory_order_relaxed);
  return empty;
}

void EdgeColouredGraph::release(Storage* s) noexcept {
  // acq_rel: every other handle's use of the storage happens before the
  // last handle deletes it, or before a sole owner's acquire check lets
  // it mutate in place.
  if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete s;
}

EdgeColouredGraph::EdgeColouredGraph(int n, int k) {
  if (n < 0) throw std::invalid_argument("EdgeColouredGraph: negative node count");
  if (k < 1 || k > gk::kMaxColours) {
    throw std::invalid_argument("EdgeColouredGraph: k must be in [1, 255]");
  }
  bind(new Storage(n, k));
}

EdgeColouredGraph::EdgeColouredGraph(const EdgeColouredGraph& other) noexcept
    : s_(other.s_), rows_(other.rows_), n_(other.n_), k_(other.k_) {
  s_->refs.fetch_add(1, std::memory_order_relaxed);
}

EdgeColouredGraph::EdgeColouredGraph(EdgeColouredGraph&& other) noexcept
    : s_(other.s_), rows_(other.rows_), n_(other.n_), k_(other.k_) {
  other.bind(empty_storage());
}

EdgeColouredGraph& EdgeColouredGraph::operator=(const EdgeColouredGraph& other) noexcept {
  other.s_->refs.fetch_add(1, std::memory_order_relaxed);  // first: self-assignment is safe
  release(s_);
  bind(other.s_);
  return *this;
}

EdgeColouredGraph& EdgeColouredGraph::operator=(EdgeColouredGraph&& other) noexcept {
  if (this != &other) {
    release(s_);
    bind(other.s_);
    other.bind(empty_storage());
  }
  return *this;
}

EdgeColouredGraph::~EdgeColouredGraph() { release(s_); }

void EdgeColouredGraph::detach() {
  Storage* copy = new Storage(*s_);
  release(s_);
  bind(copy);
}

std::shared_ptr<const Csr> EdgeColouredGraph::csr() const {
  const std::lock_guard<std::mutex> lock(s_->csr_mutex);
  if (!s_->csr) s_->csr = std::make_shared<const Csr>(build_csr(s_->adjacency));
  return s_->csr;
}

std::uint64_t EdgeColouredGraph::fingerprint() const {
  const std::lock_guard<std::mutex> lock(s_->csr_mutex);
  if (!s_->fingerprint) {
    // Node indices are non-negative 31-bit values, so (lo, hi) packs into
    // one word without loss; the colour is mixed in after a first
    // avalanche.
    std::uint64_t sum = 0;
    for (const Edge& e : s_->edges) {
      const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
      const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
      sum += mix64(mix64(lo << 32 | hi) ^ e.colour);
    }
    const std::uint64_t shape = static_cast<std::uint64_t>(n_) << 32 |
                                static_cast<std::uint32_t>(s_->k);
    s_->fingerprint = mix64(sum ^ mix64(shape));
  }
  return *s_->fingerprint;
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
    if (e.colour < 1 || e.colour > k) {
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
  std::vector<std::vector<HalfEdge>>& adjacency = s_->adjacency;
  std::vector<std::size_t> deg(adjacency.size(), 0);
  for (const Half3& h : halves) ++deg[static_cast<std::size_t>(h.at)];
  for (std::size_t v = 0; v < adjacency.size(); ++v) adjacency[v].reserve(deg[v]);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const auto slot = static_cast<std::int32_t>(i);
    adjacency[static_cast<std::size_t>(e.u)].push_back({e.v, slot, e.colour});
    adjacency[static_cast<std::size_t>(e.v)].push_back({e.u, slot, e.colour});
  }
  s_->edges = std::move(edges);
}

void EdgeColouredGraph::check_node(NodeIndex v) const {
  if (v < 0 || v >= node_count()) throw std::out_of_range("EdgeColouredGraph: bad node index");
}

void EdgeColouredGraph::add_edge(NodeIndex u, NodeIndex v, Colour colour) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("EdgeColouredGraph: self-loops not allowed");
  if (colour < 1 || colour > k_) {
    throw std::invalid_argument("EdgeColouredGraph: colour out of range");
  }
  for (const HalfEdge& h : rows_[u]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at u");
    if (h.to == v) throw std::logic_error("EdgeColouredGraph: parallel edge");
  }
  for (const HalfEdge& h : rows_[v]) {
    if (h.colour == colour) throw std::logic_error("EdgeColouredGraph: colour already used at v");
  }
  // edge_count() narrows to int; refuse the edge that would wrap it rather
  // than let a 10⁷-scale generator corrupt the count silently.
  if (s_->edges.size() >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("EdgeColouredGraph: edge count would exceed 32 bits");
  }
  Storage& s = mutable_storage();
  const auto slot = static_cast<std::int32_t>(s.edges.size());
  rows_[u].push_back({v, slot, colour});
  rows_[v].push_back({u, slot, colour});
  s.edges.push_back({u, v, colour});
}

void EdgeColouredGraph::remove_edge(NodeIndex u, NodeIndex v) {
  check_node(u);
  check_node(v);
  const std::vector<HalfEdge>& row_u = rows_[u];
  const std::vector<HalfEdge>& row_v = rows_[v];
  // Positions, not iterators: a shared handle detaches between the checks
  // and the swap-pops, and a position carries over to its private copy.
  const auto position = [](const std::vector<HalfEdge>& row, NodeIndex w) {
    const auto it = std::find_if(row.begin(), row.end(),
                                 [w](const HalfEdge& h) { return h.to == w; });
    return static_cast<std::size_t>(it - row.begin());
  };
  const std::size_t iu = position(row_u, v);
  if (iu == row_u.size()) throw std::invalid_argument("EdgeColouredGraph: remove_edge on a non-edge");
  const std::size_t iv = position(row_v, u);
  // Checked before anything moves, so a mismatch leaves the graph as it was.
  const std::int32_t slot = row_u[iu].slot;
  const auto last = static_cast<std::int32_t>(s_->edges.size()) - 1;
  const auto holds_uv = [&](const Edge& e) {
    return (e.u == u && e.v == v) || (e.u == v && e.v == u);
  };
  if (iv == row_v.size() || row_v[iv].slot != slot || slot < 0 || slot > last ||
      !holds_uv(s_->edges[static_cast<std::size_t>(slot)])) {
    throw std::logic_error("EdgeColouredGraph: adjacency/edge-list mismatch");
  }
  Storage& s = mutable_storage();
  auto& at_u = rows_[u];
  auto& at_v = rows_[v];
  at_u[iu] = at_u.back();
  at_u.pop_back();
  at_v[iv] = at_v.back();
  at_v.pop_back();
  // The last edge moves into the freed slot; re-point its two half-edges.
  if (slot != last) {
    Edge& freed = s.edges[static_cast<std::size_t>(slot)];
    freed = s.edges.back();
    for (const NodeIndex end : {freed.u, freed.v}) {
      for (HalfEdge& h : rows_[end]) {
        if (h.slot == last) h.slot = slot;
      }
    }
  }
  s.edges.pop_back();
}

std::optional<Colour> EdgeColouredGraph::edge_colour(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const HalfEdge& h : rows_[u]) {
    if (h.to == v) return h.colour;
  }
  return std::nullopt;
}

bool EdgeColouredGraph::has_edge(NodeIndex u, NodeIndex v) const {
  check_node(u);
  check_node(v);
  for (const HalfEdge& h : rows_[u]) {
    if (h.to == v) return true;
  }
  return false;
}

std::optional<NodeIndex> EdgeColouredGraph::neighbour(NodeIndex v, Colour c) const {
  check_node(v);
  for (const HalfEdge& h : rows_[v]) {
    if (h.colour == c) return h.to;
  }
  return std::nullopt;
}

std::vector<Colour> EdgeColouredGraph::incident_colours(NodeIndex v) const {
  check_node(v);
  std::vector<Colour> out;
  out.reserve(rows_[v].size());
  for (const HalfEdge& h : rows_[v]) out.push_back(h.colour);
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const HalfEdge> EdgeColouredGraph::half_edges(NodeIndex v) const {
  check_node(v);
  return rows_[v];
}

int EdgeColouredGraph::degree(NodeIndex v) const {
  check_node(v);
  return static_cast<int>(rows_[v].size());
}

int EdgeColouredGraph::max_degree() const {
  int d = 0;
  for (NodeIndex v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

bool EdgeColouredGraph::is_properly_coloured() const {
  for (const auto& halves : s_->adjacency) {
    std::vector<Colour> colours;
    for (const HalfEdge& h : halves) colours.push_back(h.colour);
    std::sort(colours.begin(), colours.end());
    if (std::adjacent_find(colours.begin(), colours.end()) != colours.end()) return false;
  }
  return true;
}

std::string EdgeColouredGraph::str() const {
  std::string out = "graph n=" + std::to_string(node_count()) + " k=" + std::to_string(s_->k) + "\n";
  for (const Edge& e : s_->edges) {
    out += "  " + std::to_string(e.u) + " -" + std::to_string(static_cast<int>(e.colour)) + "- " +
           std::to_string(e.v) + "\n";
  }
  return out;
}

}  // namespace dmm::graph
