#include "colsys/colour_system.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace dmm::colsys {

namespace {

int shrink_radius(int valid_radius, int delta) {
  if (valid_radius == kExactRadius) return kExactRadius;
  return valid_radius - delta;
}

}  // namespace

ColourSystem::ColourSystem(int k, int valid_radius) : k_(k), valid_radius_(valid_radius) {
  if (k < 1 || k > gk::kMaxColours) {
    throw std::invalid_argument("ColourSystem: k must be in [1, 255]");
  }
  if (valid_radius < 0) throw std::invalid_argument("ColourSystem: negative valid_radius");
  nodes_.push_back(Node{});
  children_.assign(static_cast<std::size_t>(k_), kNullNode);
}

NodeId ColourSystem::check(NodeId v) const {
  if (v < 0 || v >= size()) throw std::out_of_range("ColourSystem: bad node id");
  return v;
}

void ColourSystem::require_within(int radius, const char* what) const {
  if (valid_radius_ != kExactRadius && radius > valid_radius_) {
    throw std::logic_error(std::string("ColourSystem: ") + what +
                           " reads beyond the faithful truncation radius (" +
                           std::to_string(radius) + " > " + std::to_string(valid_radius_) + ")");
  }
}

NodeId ColourSystem::child(NodeId v, Colour c) const {
  check(v);
  if (c < 1 || c > k_) throw std::invalid_argument("ColourSystem::child: colour out of range");
  return children_[child_slot(v, c)];
}

NodeId ColourSystem::neighbour(NodeId v, Colour c) const {
  check(v);
  if (nodes_[v].pcolour == c) return nodes_[v].parent;
  return child(v, c);
}

void ColourSystem::reserve(int nodes) {
  nodes_.reserve(static_cast<std::size_t>(nodes));
  children_.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(k_));
}

NodeId ColourSystem::add_child(NodeId v, Colour c) {
  check(v);
  if (c < 1 || c > k_) throw std::invalid_argument("ColourSystem::add_child: colour out of range");
  if (nodes_[v].pcolour == c) {
    throw std::logic_error("ColourSystem::add_child: colour equals parent colour (word not reduced)");
  }
  if (children_[child_slot(v, c)] != kNullNode) {
    throw std::logic_error("ColourSystem::add_child: child slot already taken");
  }
  Node n;
  n.parent = v;
  n.pcolour = c;
  n.depth = nodes_[v].depth + 1;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  children_.resize(children_.size() + static_cast<std::size_t>(k_), kNullNode);
  children_[child_slot(v, c)] = id;
  return id;
}

std::vector<Colour> ColourSystem::colours_at(NodeId v) const {
  check(v);
  std::vector<Colour> out;
  for (int c = 1; c <= k_; ++c) {
    if (nodes_[v].pcolour == c || children_[child_slot(v, c)] != kNullNode) out.push_back(c);
  }
  return out;
}

int ColourSystem::degree(NodeId v) const {
  check(v);
  int d = nodes_[v].pcolour != gk::kNoColour ? 1 : 0;
  for (int c = 1; c <= k_; ++c) {
    if (children_[child_slot(v, c)] != kNullNode) ++d;
  }
  return d;
}

NodeId ColourSystem::find(const gk::Word& w) const {
  NodeId v = root();
  for (Colour c : w.letters()) {
    v = children_[child_slot(v, c)];
    if (v == kNullNode) return kNullNode;
  }
  return v;
}

gk::Word ColourSystem::word_of(NodeId v) const {
  check(v);
  std::vector<Colour> letters;
  for (NodeId u = v; u != root(); u = nodes_[u].parent) letters.push_back(nodes_[u].pcolour);
  std::reverse(letters.begin(), letters.end());
  return gk::Word::from_letters(letters);
}

std::vector<NodeId> ColourSystem::nodes_up_to(int h) const {
  std::vector<NodeId> out;
  std::deque<NodeId> queue{root()};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (nodes_[v].depth > h) continue;
    out.push_back(v);
    for (int c = 1; c <= k_; ++c) {
      const NodeId u = children_[child_slot(v, c)];
      if (u != kNullNode) queue.push_back(u);
    }
  }
  return out;
}

bool ColourSystem::is_regular(int d) const {
  for (NodeId v = 0; v < size(); ++v) {
    const bool interior = is_exact() || nodes_[v].depth < valid_radius_;
    if (interior && degree(v) != d) return false;
  }
  return true;
}

ColourSystem ColourSystem::restricted(int h, std::vector<NodeId>* old_to_new) const {
  require_within(h, "restricted");
  ColourSystem out(k_, kExactRadius);
  if (old_to_new) old_to_new->assign(nodes_.size(), kNullNode);
  // BFS; node 0 maps to node 0.
  std::vector<NodeId> map(nodes_.size(), kNullNode);
  map[root()] = out.root();
  for (NodeId v : nodes_up_to(h)) {
    if (v == root()) continue;
    map[v] = out.add_child(map[nodes_[v].parent], nodes_[v].pcolour);
  }
  if (old_to_new) *old_to_new = std::move(map);
  return out;
}

ColourSystem ColourSystem::rerooted(NodeId y, std::vector<NodeId>* old_to_new) const {
  check(y);
  const int new_radius = shrink_radius(valid_radius_, nodes_[y].depth);
  if (valid_radius_ != kExactRadius && new_radius < 0) {
    throw std::logic_error("ColourSystem::rerooted: truncation too shallow to re-root here");
  }
  ColourSystem out(k_, new_radius);
  std::vector<NodeId> map(nodes_.size(), kNullNode);
  map[y] = out.root();
  // BFS over the undirected tree starting from y.
  std::deque<NodeId> queue{y};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    // Neighbours: parent (if any) plus children.
    auto visit = [&](NodeId u, Colour edge_colour) {
      if (u == kNullNode || map[u] != kNullNode) return;
      map[u] = out.add_child(map[v], edge_colour);
      queue.push_back(u);
    };
    if (nodes_[v].parent != kNullNode) visit(nodes_[v].parent, nodes_[v].pcolour);
    for (int c = 1; c <= k_; ++c) visit(children_[child_slot(v, c)], c);
  }
  if (old_to_new) *old_to_new = std::move(map);
  return out;
}

ColourSystem ColourSystem::pruned(Colour c, std::vector<NodeId>* old_to_new) const {
  if (child(root(), c) == kNullNode) {
    throw std::logic_error("ColourSystem::pruned: root has no child of this colour");
  }
  ColourSystem out(k_, valid_radius_);
  std::vector<NodeId> map(nodes_.size(), kNullNode);
  map[root()] = out.root();
  std::deque<NodeId> queue;
  for (int cc = 1; cc <= k_; ++cc) {
    const NodeId u = children_[child_slot(root(), cc)];
    if (u != kNullNode && cc != c) {
      map[u] = out.add_child(out.root(), cc);
      queue.push_back(u);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (int cc = 1; cc <= k_; ++cc) {
      const NodeId u = children_[child_slot(v, cc)];
      if (u != kNullNode) {
        map[u] = out.add_child(map[v], cc);
        queue.push_back(u);
      }
    }
  }
  if (old_to_new) *old_to_new = std::move(map);
  return out;
}

ColourSystem ColourSystem::grafted(Colour c, const ColourSystem& other,
                                   std::vector<NodeId>* self_to_new,
                                   std::vector<NodeId>* other_to_new) const {
  if (other.k() != k_) throw std::invalid_argument("ColourSystem::grafted: mismatched k");
  if (other.child(other.root(), c) == kNullNode) {
    throw std::logic_error("ColourSystem::grafted: donor has no subtree of this colour");
  }
  const int new_radius = std::min(valid_radius_, other.valid_radius_);
  // Start from this system without its c-subtree (if it has one).
  ColourSystem out(k_, new_radius);
  std::vector<NodeId> self_map(nodes_.size(), kNullNode);
  self_map[root()] = out.root();
  std::deque<NodeId> queue;
  for (int cc = 1; cc <= k_; ++cc) {
    const NodeId u = children_[child_slot(root(), cc)];
    if (u != kNullNode && cc != c) {
      self_map[u] = out.add_child(out.root(), cc);
      queue.push_back(u);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (int cc = 1; cc <= k_; ++cc) {
      const NodeId u = children_[child_slot(v, cc)];
      if (u != kNullNode) {
        self_map[u] = out.add_child(self_map[v], cc);
        queue.push_back(u);
      }
    }
  }
  // Copy the donor's c-subtree under our root.
  std::vector<NodeId> other_map(other.nodes_.size(), kNullNode);
  const NodeId donor_top = other.child(other.root(), c);
  other_map[donor_top] = out.add_child(out.root(), c);
  queue.push_back(donor_top);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (int cc = 1; cc <= k_; ++cc) {
      const NodeId u = other.children_[child_slot(v, cc)];
      if (u != kNullNode) {
        other_map[u] = out.add_child(other_map[v], cc);
        queue.push_back(u);
      }
    }
  }
  if (self_to_new) *self_to_new = std::move(self_map);
  if (other_to_new) *other_to_new = std::move(other_map);
  return out;
}

ColourSystem ColourSystem::permuted(const std::vector<Colour>& perm) const {
  if (static_cast<int>(perm.size()) != k_ + 1) {
    throw std::invalid_argument("ColourSystem::permuted: perm must have size k + 1");
  }
  ColourSystem out(k_, valid_radius_);
  std::vector<NodeId> map(nodes_.size(), kNullNode);
  map[root()] = out.root();
  // BFS, visiting each node's children in *relabelled* colour order so the
  // output's node numbering is its own canonical BFS numbering.
  std::deque<NodeId> queue{root()};
  std::vector<std::pair<Colour, NodeId>> order;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    order.clear();
    for (int c = 1; c <= k_; ++c) {
      const NodeId u = children_[child_slot(v, c)];
      if (u != kNullNode) order.emplace_back(perm[c], u);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [c, u] : order) {
      map[u] = out.add_child(map[v], c);
      queue.push_back(u);
    }
  }
  return out;
}

ColourSystem ColourSystem::ball(NodeId v, int radius) const {
  check(v);
  if (radius < 0) throw std::invalid_argument("ColourSystem::ball: negative radius");
  require_within(valid_radius_ == kExactRadius ? 0 : nodes_[v].depth + radius, "ball");
  // A ball is a truncation of (v̄V): faithful exactly to `radius`.
  ColourSystem out(k_, radius);
  std::vector<std::pair<NodeId, NodeId>> frontier{{v, out.root()}};  // (src, dst)
  std::vector<std::pair<NodeId, NodeId>> next;
  std::vector<char> seen(nodes_.size(), 0);
  seen[v] = 1;
  for (int step = 0; step < radius && !frontier.empty(); ++step) {
    next.clear();
    for (auto [src, dst] : frontier) {
      auto visit = [&](NodeId u, Colour edge_colour) {
        if (u == kNullNode || seen[u]) return;
        seen[u] = 1;
        next.emplace_back(u, out.add_child(dst, edge_colour));
      };
      if (nodes_[src].parent != kNullNode) visit(nodes_[src].parent, nodes_[src].pcolour);
      for (int c = 1; c <= k_; ++c) visit(children_[child_slot(src, c)], c);
    }
    frontier.swap(next);
  }
  return out;
}

std::vector<std::uint8_t> ColourSystem::serialize(int radius) const {
  std::vector<std::uint8_t> out;
  serialize_into(radius, out);
  return out;
}

void ColourSystem::serialize_into(int radius, std::vector<std::uint8_t>& out) const {
  require_within(radius, "serialize");
  serialize_subtree_into(root(), gk::kNoColour, radius, out);
}

void ColourSystem::serialize_subtree_into(NodeId top, Colour dropped, int radius,
                                          std::vector<std::uint8_t>& out) const {
  check(top);
  if (valid_radius_ != kExactRadius && nodes_[top].depth + radius > valid_radius_) {
    throw std::logic_error(
        "ColourSystem: serialize_subtree_into reads beyond the faithful truncation radius");
  }
  out.push_back(static_cast<std::uint8_t>(k_));
  // Pre-order walk with children in colour order, depth-limited: each node
  // emits the sorted list of its child colours, then its subtrees.  Because
  // child order is canonical, equal trees serialise identically.  The walk
  // keeps no stack: it descends to a node's first child and, once a subtree
  // is done, climbs parent links to the next sibling colour, never above
  // `top`.
  const auto next_child = [&](NodeId v, int after) {
    const int omitted = v == top ? dropped : gk::kNoColour;
    for (int c = after + 1; c <= k_; ++c) {
      const NodeId u = children_[child_slot(v, static_cast<Colour>(c))];
      if (c != omitted && u != kNullNode) return u;
    }
    return kNullNode;
  };
  NodeId v = top;
  int depth = 0;
  while (true) {
    if (depth == radius) {
      out.push_back(0xff);  // leaf-by-truncation marker
    } else {
      // The child count is back-patched once the colours are out.
      const std::size_t count_at = out.size();
      out.push_back(0);
      const NodeId first = next_child(v, 0);
      for (NodeId u = first; u != kNullNode; u = next_child(v, nodes_[u].pcolour)) {
        out.push_back(nodes_[u].pcolour);
      }
      out[count_at] = static_cast<std::uint8_t>(out.size() - count_at - 1);
      if (first != kNullNode) {
        v = first;
        ++depth;
        continue;
      }
    }
    // v's subtree is done: climb to the nearest ancestor with a next child.
    while (true) {
      if (v == top) return;
      const NodeId next = next_child(nodes_[v].parent, nodes_[v].pcolour);
      if (next != kNullNode) {
        v = next;
        break;
      }
      v = nodes_[v].parent;
      --depth;
    }
  }
}

bool ColourSystem::equal_to_radius(const ColourSystem& a, const ColourSystem& b, int h) {
  if (a.k() != b.k()) return false;
  return a.serialize(h) == b.serialize(h);
}

std::string ColourSystem::str(int max_depth) const {
  std::string out;
  struct Frame {
    NodeId v;
    int indent;
  };
  std::vector<Frame> stack{{root(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(f.indent) * 2, ' ');
    if (f.v == root()) {
      out += "e";
    } else {
      out += "-" + std::to_string(static_cast<int>(nodes_[f.v].pcolour)) + "-";
    }
    out += "\n";
    if (nodes_[f.v].depth >= max_depth) continue;
    for (int c = k_; c >= 1; --c) {
      const NodeId u = children_[child_slot(f.v, c)];
      if (u != kNullNode) stack.push_back({u, f.indent + 1});
    }
  }
  return out;
}

ColourSystem cayley_ball(int k, int depth) {
  return regular_system(k, k, depth);
}

ColourSystem regular_system(int k, int d, int depth) {
  if (d < 0 || d > k) throw std::invalid_argument("regular_system: need 0 <= d <= k");
  ColourSystem out(k, depth);
  if (d == 0) {
    // Z = {e}; a 0-regular system is exact regardless of `depth`.
    return ColourSystem(k, kExactRadius);
  }
  // BFS construction: the root takes colours {1..d}; every other node keeps
  // its parent colour and adds the smallest d-1 other colours.
  std::deque<NodeId> queue{ColourSystem::root()};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (out.depth(v) >= depth) continue;
    const Colour pc = out.parent_colour(v);
    int added = pc != gk::kNoColour ? 1 : 0;  // parent edge counts towards d
    for (int c = 1; c <= k && added < d; ++c) {
      if (c == pc) continue;
      queue.push_back(out.add_child(v, c));
      ++added;
    }
  }
  return out;
}

ColourSystem path_system(int k, const std::vector<Colour>& colours) {
  ColourSystem out(k, kExactRadius);
  NodeId v = ColourSystem::root();
  for (Colour c : colours) v = out.add_child(v, c);
  return out;
}

}  // namespace dmm::colsys
