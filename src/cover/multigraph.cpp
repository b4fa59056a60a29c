#include "cover/multigraph.hpp"

#include <stdexcept>

namespace dmm::cover {

Multigraph::Multigraph(int n, int k) : k_(k) {
  if (n < 1) throw std::invalid_argument("Multigraph: need at least one node");
  if (k < 1) throw std::invalid_argument("Multigraph: k must be >= 1");
  ports_.assign(static_cast<std::size_t>(n),
                std::vector<NodeIndex>(static_cast<std::size_t>(k), -1));
}

void Multigraph::check(NodeIndex v, Colour c) const {
  if (v < 0 || v >= node_count()) throw std::out_of_range("Multigraph: bad node");
  if (c < 1 || c > k_) throw std::invalid_argument("Multigraph: bad colour");
}

void Multigraph::add_edge(NodeIndex u, NodeIndex v, Colour c) {
  check(u, c);
  check(v, c);
  if (u == v) throw std::invalid_argument("Multigraph: use add_loop for self-loops");
  if (ports_[static_cast<std::size_t>(u)][c - 1] != -1 ||
      ports_[static_cast<std::size_t>(v)][c - 1] != -1) {
    throw std::logic_error("Multigraph: port already in use");
  }
  ports_[static_cast<std::size_t>(u)][c - 1] = v;
  ports_[static_cast<std::size_t>(v)][c - 1] = u;
}

void Multigraph::add_loop(NodeIndex v, Colour c) {
  check(v, c);
  if (ports_[static_cast<std::size_t>(v)][c - 1] != -1) {
    throw std::logic_error("Multigraph: port already in use");
  }
  ports_[static_cast<std::size_t>(v)][c - 1] = v;
}

std::optional<NodeIndex> Multigraph::port(NodeIndex v, Colour c) const {
  check(v, c);
  const NodeIndex to = ports_[static_cast<std::size_t>(v)][c - 1];
  if (to == -1) return std::nullopt;
  return to;
}

bool Multigraph::has_loop(NodeIndex v, Colour c) const {
  check(v, c);
  return ports_[static_cast<std::size_t>(v)][c - 1] == v;
}

std::vector<Colour> Multigraph::colours_at(NodeIndex v) const {
  check(v, 1);
  std::vector<Colour> out;
  for (int c = 1; c <= k_; ++c) {
    if (ports_[static_cast<std::size_t>(v)][c - 1] != -1) out.push_back(c);
  }
  return out;
}

}  // namespace dmm::cover
