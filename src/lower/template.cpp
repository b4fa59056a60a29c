#include "lower/template.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmm::lower {

Template::Template(ColourSystem tree, std::vector<Colour> tau, int h, Unchecked)
    : tree_(std::move(tree)), tau_(std::move(tau)), h_(h) {}

Template::Template(ColourSystem tree, std::vector<Colour> tau, int h)
    : Template(std::move(tree), std::move(tau), h, Unchecked{}) {
  if (static_cast<int>(tau_.size()) != tree_.size()) {
    throw std::invalid_argument("Template: tau size mismatch");
  }
  if (!tree_.is_regular(h_)) {
    throw std::invalid_argument("Template: tree is not h-regular on its faithful region");
  }
  for (NodeId t = 0; t < tree_.size(); ++t) {
    const Colour f = tau_[static_cast<std::size_t>(t)];
    if (f < 1 || f > tree_.k()) throw std::invalid_argument("Template: tau out of range");
    if (tree_.neighbour(t, f) != colsys::kNullNode &&
        (tree_.is_exact() || tree_.depth(t) < tree_.valid_radius())) {
      throw std::invalid_argument("Template: tau(t) must not be incident to t");
    }
  }
}

Template make_template_unchecked(ColourSystem tree, std::vector<Colour> tau, int h) {
  return Template(std::move(tree), std::move(tau), h, Template::Unchecked{});
}

std::vector<Colour> Template::free_colours(NodeId t) const {
  std::vector<Colour> out;
  const Colour forbidden = tau(t);
  for (int c = 1; c <= tree_.k(); ++c) {
    if (c != forbidden && tree_.neighbour(t, c) == colsys::kNullNode) out.push_back(c);
  }
  return out;
}

std::vector<Colour> Template::open_colours(NodeId t) const {
  std::vector<Colour> out;
  const Colour forbidden = tau(t);
  for (int c = 1; c <= tree_.k(); ++c) {
    if (c != forbidden) out.push_back(c);
  }
  return out;
}

Template Template::restricted(int new_h, int radius) const {
  std::vector<NodeId> map;
  ColourSystem new_tree = tree_.restricted(radius, &map);
  std::vector<Colour> new_tau(static_cast<std::size_t>(new_tree.size()), gk::kNoColour);
  for (NodeId t = 0; t < tree_.size(); ++t) {
    if (map[static_cast<std::size_t>(t)] != colsys::kNullNode) {
      new_tau[static_cast<std::size_t>(map[static_cast<std::size_t>(t)])] =
          tau_[static_cast<std::size_t>(t)];
    }
  }
  return make_template_unchecked(std::move(new_tree), std::move(new_tau), new_h);
}

Template Template::rerooted(NodeId y) const {
  std::vector<NodeId> map;
  ColourSystem new_tree = tree_.rerooted(y, &map);
  std::vector<Colour> new_tau(static_cast<std::size_t>(new_tree.size()), gk::kNoColour);
  for (NodeId t = 0; t < tree_.size(); ++t) {
    if (map[static_cast<std::size_t>(t)] != colsys::kNullNode) {
      new_tau[static_cast<std::size_t>(map[static_cast<std::size_t>(t)])] =
          tau_[static_cast<std::size_t>(t)];
    }
  }
  return Template(std::move(new_tree), std::move(new_tau), h_, Unchecked{});
}

std::string Template::str(int max_depth) const {
  std::string out = "template h=" + std::to_string(h_) +
                    " valid_radius=" + (tree_.is_exact() ? std::string("exact")
                                                         : std::to_string(valid_radius())) +
                    "\n";
  for (NodeId t : tree_.nodes_up_to(std::min(max_depth, 3))) {
    out += "  " + tree_.word_of(t).str() + ": tau=" + std::to_string(static_cast<int>(tau(t))) + "\n";
  }
  return out;
}

bool compatible(const Template& s, const Template& t, int h) {
  if (s.k() != t.k()) return false;
  if (!ColourSystem::equal_to_radius(s.tree(), t.tree(), h)) return false;  // (C1)
  // (C2): σ[h-1] = τ[h-1].  Nodes correspond by their words; walk s's tree.
  for (NodeId a : s.tree().nodes_up_to(h - 1)) {
    const NodeId b = t.tree().find(s.tree().word_of(a));
    if (b == colsys::kNullNode || s.tau(a) != t.tau(b)) return false;
  }
  return true;
}

}  // namespace dmm::lower
