#include "colsys/canon.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmm::colsys {

// ---------------------------------------------------------------------------
// Colour permutations.
// ---------------------------------------------------------------------------

namespace {

void require_orbit_k(int k, const char* what) {
  if (k < 1 || k > kMaxOrbitColours) {
    throw std::invalid_argument(std::string(what) + ": orbit machinery needs 1 <= k <= " +
                                std::to_string(kMaxOrbitColours));
  }
}

}  // namespace

ColourPerm identity_perm(int k) {
  ColourPerm p(static_cast<std::size_t>(k) + 1);
  for (int c = 0; c <= k; ++c) p[static_cast<std::size_t>(c)] = static_cast<Colour>(c);
  return p;
}

ColourPerm compose_perm(const ColourPerm& a, const ColourPerm& b) {
  if (a.size() != b.size()) throw std::invalid_argument("compose_perm: mismatched k");
  ColourPerm out(a.size());
  out[0] = gk::kNoColour;
  for (std::size_t c = 1; c < b.size(); ++c) out[c] = a[b[c]];
  return out;
}

ColourPerm inverse_perm(const ColourPerm& p) {
  ColourPerm out(p.size());
  out[0] = gk::kNoColour;
  for (std::size_t c = 1; c < p.size(); ++c) out[p[c]] = static_cast<Colour>(c);
  return out;
}

std::vector<ColourPerm> all_perms(int k) {
  require_orbit_k(k, "all_perms");
  std::vector<Colour> images;
  for (int c = 1; c <= k; ++c) images.push_back(c);
  std::vector<ColourPerm> out;
  do {
    ColourPerm p(static_cast<std::size_t>(k) + 1, gk::kNoColour);
    for (int c = 1; c <= k; ++c) p[static_cast<std::size_t>(c)] = images[static_cast<std::size_t>(c - 1)];
    out.push_back(std::move(p));
  } while (std::next_permutation(images.begin(), images.end()));
  return out;
}

std::uint32_t perm_rank(const ColourPerm& p) {
  // Lehmer code over the images p[1..k].
  const int k = static_cast<int>(p.size()) - 1;
  std::uint32_t rank = 0;
  for (int i = 1; i <= k; ++i) {
    std::uint32_t smaller = 0;
    for (int j = i + 1; j <= k; ++j) {
      if (p[static_cast<std::size_t>(j)] < p[static_cast<std::size_t>(i)]) ++smaller;
    }
    rank = rank * static_cast<std::uint32_t>(k - i + 1) + smaller;
  }
  return rank;
}

ColourPerm min_coset_rep(const ColourPerm& sigma, const std::vector<ColourPerm>& stab) {
  if (stab.empty()) throw std::invalid_argument("min_coset_rep: empty stabiliser");
  // Lexicographic order on the image sequence == Lehmer-rank order, and
  // comparing ranks keeps this integer-only on the pair-index hot path.
  ColourPerm best = compose_perm(sigma, stab.front());
  std::uint32_t best_rank = perm_rank(best);
  for (std::size_t i = 1; i < stab.size(); ++i) {
    ColourPerm candidate = compose_perm(sigma, stab[i]);
    const std::uint32_t rank = perm_rank(candidate);
    if (rank < best_rank) {
      best = std::move(candidate);
      best_rank = rank;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// SerialisedView.
// ---------------------------------------------------------------------------

SerialisedView::SerialisedView(const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) throw std::invalid_argument("SerialisedView: empty buffer");
  k_ = bytes[0];
  if (k_ < 1) throw std::invalid_argument("SerialisedView: bad k byte");
  // The format is prefix-free per node: [count][colours...][subtrees...] or
  // the 0xff truncation marker.  Parse it with an explicit stack whose
  // entries are node indices waiting for their subtrees.
  std::size_t pos = 1;
  struct Pending {
    std::int32_t node;
    std::int32_t remaining;  // children still to parse
  };
  std::vector<Pending> stack;
  // Parse one node, attach it under `parent` (or as the root).
  const auto parse_node = [&]() {
    if (pos >= bytes.size()) throw std::invalid_argument("SerialisedView: truncated buffer");
    const std::uint8_t head = bytes[pos++];
    const std::int32_t node = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({});
    if (head == 0xff) {
      nodes_[static_cast<std::size_t>(node)].truncated = true;
      return node;
    }
    const int count = head;
    internal_order_.push_back(node);  // parse order is preorder
    nodes_[static_cast<std::size_t>(node)].first_child =
        static_cast<std::int32_t>(child_colours_.size());
    nodes_[static_cast<std::size_t>(node)].child_count = count;
    if (pos + static_cast<std::size_t>(count) > bytes.size()) {
      throw std::invalid_argument("SerialisedView: truncated colour list");
    }
    for (int i = 0; i < count; ++i) {
      const Colour c = bytes[pos++];
      if (c < 1 || c > k_) throw std::invalid_argument("SerialisedView: colour out of range");
      child_colours_.push_back(c);
      child_nodes_.push_back(0);  // filled as the subtrees parse
    }
    if (count > 0) stack.push_back({node, count});
    return node;
  };
  parse_node();  // the root
  while (!stack.empty()) {
    Pending& top = stack.back();
    const std::int32_t parent = top.node;
    const std::int32_t slot =
        nodes_[static_cast<std::size_t>(parent)].child_count - top.remaining;
    if (--top.remaining == 0) stack.pop_back();  // invalidates `top`
    const std::int32_t child = parse_node();
    child_nodes_[static_cast<std::size_t>(
        nodes_[static_cast<std::size_t>(parent)].first_child + slot)] = child;
  }
  if (pos != bytes.size()) throw std::invalid_argument("SerialisedView: trailing bytes");
  assigned_ = static_cast<std::int32_t>(internal_order_.size());
}

SerialisedView::SerialisedView(const ColourSystem& view, int radius)
    : SerialisedView(view.serialize(radius)) {}

SerialisedView::SerialisedView(int k, int d, int rho) : k_(k), skeleton_(true) {
  if (d < 1 || d > k) throw std::invalid_argument("SerialisedView skeleton: need 1 <= d <= k");
  if (rho < 1) throw std::invalid_argument("SerialisedView skeleton: need rho >= 1");
  // Preorder build: allocate a node's child slots before recursing so slots
  // stay contiguous (the parser's layout), then fill child_nodes_ as the
  // subtrees are created.  Child colours stay 0 (= unassigned).
  const auto build = [&](auto&& self, int depth) -> std::int32_t {
    const std::int32_t node = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({});
    if (depth == rho) {
      nodes_[static_cast<std::size_t>(node)].truncated = true;
      return node;
    }
    internal_order_.push_back(node);
    const int count = depth == 0 ? d : d - 1;
    nodes_[static_cast<std::size_t>(node)].first_child =
        static_cast<std::int32_t>(child_colours_.size());
    nodes_[static_cast<std::size_t>(node)].child_count = count;
    child_colours_.resize(child_colours_.size() + static_cast<std::size_t>(count), gk::kNoColour);
    child_nodes_.resize(child_nodes_.size() + static_cast<std::size_t>(count), 0);
    const std::int32_t first = nodes_[static_cast<std::size_t>(node)].first_child;
    for (int i = 0; i < count; ++i) {
      child_nodes_[static_cast<std::size_t>(first + i)] = self(self, depth + 1);
    }
    return node;
  };
  build(build, 0);
  prefix_.push_back(static_cast<std::uint8_t>(k_));
}

void SerialisedView::push_assignment(const Colour* colours) {
  if (!skeleton_) throw std::logic_error("push_assignment: not a skeleton view");
  if (assigned_ >= static_cast<std::int32_t>(internal_order_.size())) {
    throw std::logic_error("push_assignment: every internal node is already assigned");
  }
  const std::int32_t node = internal_order_[static_cast<std::size_t>(assigned_)];
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  prefix_marks_.push_back(prefix_.size());
  prefix_.push_back(static_cast<std::uint8_t>(nd.child_count));
  for (std::int32_t i = 0; i < nd.child_count; ++i) {
    const Colour c = colours[i];
    if (c < 1 || c > k_ || (i > 0 && colours[i - 1] >= c)) {
      prefix_.resize(prefix_marks_.back());
      prefix_marks_.pop_back();
      throw std::invalid_argument("push_assignment: colours must be ascending in [1, k]");
    }
    child_colours_[static_cast<std::size_t>(nd.first_child + i)] = c;
    prefix_.push_back(static_cast<std::uint8_t>(c));
  }
  ++assigned_;
  // Segments appear in node-index order, so the prefix extends through any
  // truncated nodes sitting between this internal node and the next one.
  const std::int32_t stop = assigned_ < static_cast<std::int32_t>(internal_order_.size())
                                ? internal_order_[static_cast<std::size_t>(assigned_)]
                                : node_count();
  for (std::int32_t j = node + 1; j < stop; ++j) prefix_.push_back(0xff);
}

void SerialisedView::pop_assignment() {
  if (prefix_marks_.empty()) throw std::logic_error("pop_assignment: nothing to pop");
  prefix_.resize(prefix_marks_.back());
  prefix_marks_.pop_back();
  --assigned_;
}

const std::vector<std::uint8_t>& SerialisedView::reference_bytes(
    std::vector<std::uint8_t>& local) const {
  if (skeleton_) return prefix_;
  serialise(identity_perm(k_), local);
  return local;
}

void SerialisedView::serialise(const ColourPerm& pi, std::vector<std::uint8_t>& out) const {
  if (static_cast<int>(pi.size()) != k_ + 1) {
    throw std::invalid_argument("SerialisedView::serialise: permutation has wrong k");
  }
  out.push_back(static_cast<std::uint8_t>(k_));
  std::vector<std::int32_t> stack{0};
  // Scratch for the per-node (image colour, child) sort; degree ≤ k.
  std::vector<std::pair<Colour, std::int32_t>> order;
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.truncated) {
      out.push_back(0xff);
      continue;
    }
    out.push_back(static_cast<std::uint8_t>(node.child_count));
    order.clear();
    for (std::int32_t i = 0; i < node.child_count; ++i) {
      const std::size_t slot = static_cast<std::size_t>(node.first_child + i);
      order.emplace_back(pi[child_colours_[slot]], child_nodes_[slot]);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [c, child] : order) out.push_back(c);
    for (auto it = order.rbegin(); it != order.rend(); ++it) stack.push_back(it->second);
  }
}

/// Shared walk behind stabiliser() and prefix_rejects(): a DFS over the
/// tree in π-image order with lazy colour-image assignment, compared byte
/// by byte against the identity serialisation (`ref`).  Every live branch
/// is byte-equal to ref so far, which keeps the state machine simpler than
/// Canon's incumbent tracking:
///
///   - reject mode hunts for a *certificate*: a branch whose next byte is
///     strictly below ref while everything before matched.  Such a π beats
///     the identity on bytes the assignment already determines, so no
///     completion of the prefix can be canonical.  At a branch node the
///     free colour images are forced to the smallest unused values (the
///     lex-min composite list); if even that list exceeds ref the branch is
///     dead, if it ties it is the unique tying image set, and if it drops
///     below ref it is the certificate.
///   - tie mode (stabiliser) keeps only branches that stay byte-equal, so
///     the free image multiset is dictated by ref itself — the walker reads
///     the required images straight out of the reference segment.
///
/// A branch that reaches a node whose colours are not yet assigned (or
/// runs past the known prefix) is indeterminate and certifies nothing.
/// Branches that walk the whole tree byte-equal are stabiliser elements;
/// their free (never-emitted) colours extend to every bijection on the
/// unused values.
struct SerialisedView::PrefixWalk {
  const SerialisedView& t;
  const std::vector<std::uint8_t>& ref;
  std::int32_t unknown_from;  // non-truncated nodes >= this have unassigned colours
  bool reject_mode;
  std::vector<ColourPerm>* ties;
  int k;
  ColourPerm perm;               // colour → image, kNoColour = unassigned
  std::vector<char> value_used;  // image → taken
  std::size_t pos = 1;           // ref[0] is the shared k byte
  bool smaller = false;          // reject mode: certificate found

  PrefixWalk(const SerialisedView& view, const std::vector<std::uint8_t>& reference,
             std::int32_t unknown, bool reject, std::vector<ColourPerm>* tie_sink)
      : t(view),
        ref(reference),
        unknown_from(unknown),
        reject_mode(reject),
        ties(tie_sink),
        k(view.k()),
        perm(static_cast<std::size_t>(view.k()) + 1, gk::kNoColour),
        value_used(static_cast<std::size_t>(view.k()) + 1, 0) {}

  bool emit(std::uint8_t b) {
    if (pos >= ref.size()) return false;  // past the determined prefix: indeterminate
    const std::uint8_t r = ref[pos];
    if (b != r) {
      if (reject_mode && b < r) smaller = true;
      return false;
    }
    ++pos;
    return true;
  }

  void run() { step({0}); }

  void step(std::vector<std::int32_t> stack) {
    std::vector<std::pair<Colour, std::int32_t>> order;
    while (!stack.empty()) {
      const Node& node = t.nodes_[static_cast<std::size_t>(stack.back())];
      const std::int32_t idx = stack.back();
      stack.pop_back();
      if (node.truncated) {
        if (!emit(0xff)) return;
        continue;
      }
      if (idx >= unknown_from) return;  // unassigned colours: indeterminate
      if (!emit(static_cast<std::uint8_t>(node.child_count))) return;
      std::vector<Colour> unassigned;
      for (std::int32_t i = 0; i < node.child_count; ++i) {
        const Colour c = t.child_colours_[static_cast<std::size_t>(node.first_child + i)];
        if (perm[c] == gk::kNoColour) unassigned.push_back(c);
      }
      if (unassigned.empty()) {
        order.clear();
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const std::size_t slot = static_cast<std::size_t>(node.first_child + i);
          order.emplace_back(perm[t.child_colours_[slot]], t.child_nodes_[slot]);
        }
        std::sort(order.begin(), order.end());
        for (const auto& [c, child] : order) {
          if (!emit(c)) return;
        }
        for (auto it = order.rbegin(); it != order.rend(); ++it) stack.push_back(it->second);
        continue;
      }
      // Branch point: pick the free image set, then try every matching.
      std::sort(unassigned.begin(), unassigned.end());
      std::vector<Colour> images;
      if (reject_mode) {
        // The smallest unused values give the lex-min composite list; see
        // the struct comment for why this loses no certificate and no tie.
        for (int v = 1; v <= k && images.size() < unassigned.size(); ++v) {
          if (!value_used[v]) images.push_back(v);
        }
      } else {
        // Tie mode: the required composite multiset is ref's own segment;
        // subtract the fixed images, the remainder is the forced free set.
        if (pos + static_cast<std::size_t>(node.child_count) > ref.size()) return;
        std::vector<char> needed(static_cast<std::size_t>(k) + 1, 0);
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const std::uint8_t v = ref[pos + static_cast<std::size_t>(i)];
          if (v < 1 || v > static_cast<std::uint8_t>(k)) return;
          ++needed[v];
        }
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const Colour c = t.child_colours_[static_cast<std::size_t>(node.first_child + i)];
          if (perm[c] == gk::kNoColour) continue;
          if (needed[perm[c]] == 0) return;  // fixed image not in ref's segment
          --needed[perm[c]];
        }
        for (int v = 1; v <= k; ++v) {
          if (needed[v] > 1 || (needed[v] == 1 && value_used[v])) return;
          if (needed[v] == 1) images.push_back(v);
        }
        if (images.size() != unassigned.size()) return;
      }
      const std::size_t saved_pos = pos;
      do {
        for (std::size_t i = 0; i < unassigned.size(); ++i) {
          perm[unassigned[i]] = images[i];
          value_used[images[i]] = 1;
        }
        order.clear();
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const std::size_t slot = static_cast<std::size_t>(node.first_child + i);
          order.emplace_back(perm[t.child_colours_[slot]], t.child_nodes_[slot]);
        }
        std::sort(order.begin(), order.end());
        bool dead = false;
        for (const auto& [c, child] : order) {
          if (!emit(c)) {
            dead = true;
            break;
          }
        }
        if (!dead) {
          std::vector<std::int32_t> continuation = stack;
          for (auto it = order.rbegin(); it != order.rend(); ++it) {
            continuation.push_back(it->second);
          }
          step(std::move(continuation));
        }
        pos = saved_pos;
        for (std::size_t i = 0; i < unassigned.size(); ++i) {
          perm[unassigned[i]] = gk::kNoColour;
          value_used[images[i]] = 0;
        }
        if (smaller) return;  // a certificate aborts the whole search
      } while (std::next_permutation(images.begin(), images.end()));
      return;  // every continuation ran inside the loop
    }
    // Whole tree walked byte-equal: a tie.  (An unassigned node would have
    // aborted the branch, so reaching here means the view is fully
    // assigned and pos == ref.size().)  Colours that never appear in the
    // emitted bytes extend to every bijection onto the unused values.
    if (ties == nullptr) return;
    std::vector<Colour> free_cols, free_vals;
    for (int c = 1; c <= k; ++c) {
      if (perm[c] == gk::kNoColour) free_cols.push_back(c);
    }
    for (int v = 1; v <= k; ++v) {
      if (!value_used[v]) free_vals.push_back(v);
    }
    do {
      ColourPerm full = perm;
      for (std::size_t i = 0; i < free_cols.size(); ++i) full[free_cols[i]] = free_vals[i];
      ties->push_back(std::move(full));
    } while (std::next_permutation(free_vals.begin(), free_vals.end()));
  }
};

std::vector<ColourPerm> SerialisedView::stabiliser() const {
  require_orbit_k(k_, "SerialisedView::stabiliser");
  std::vector<std::uint8_t> local;
  std::vector<ColourPerm> out;
  PrefixWalk walk(*this, reference_bytes(local), node_count(), /*reject=*/false, &out);
  walk.run();
  std::sort(out.begin(), out.end(), [](const ColourPerm& a, const ColourPerm& b) {
    return perm_rank(a) < perm_rank(b);
  });
  return out;
}

bool SerialisedView::prefix_rejects(std::vector<ColourPerm>* stabiliser) const {
  require_orbit_k(k_, "SerialisedView::prefix_rejects");
  const bool complete = assigned_ == static_cast<std::int32_t>(internal_order_.size());
  if (stabiliser != nullptr && !complete) {
    throw std::invalid_argument("prefix_rejects: stabiliser needs a complete assignment");
  }
  std::vector<std::uint8_t> local;
  const std::int32_t unknown_from =
      complete ? node_count() : internal_order_[static_cast<std::size_t>(assigned_)];
  if (stabiliser != nullptr) stabiliser->clear();
  PrefixWalk walk(*this, reference_bytes(local), unknown_from, /*reject=*/true, stabiliser);
  walk.run();
  if (stabiliser != nullptr) {
    if (walk.smaller) {
      stabiliser->clear();  // a rejected view has no meaningful tie set
    } else {
      std::sort(stabiliser->begin(), stabiliser->end(),
                [](const ColourPerm& a, const ColourPerm& b) {
                  return perm_rank(a) < perm_rank(b);
                });
    }
  }
  return walk.smaller;
}

/// Branch-and-bound minimisation state.  The emission mirrors serialise():
/// a DFS over the parsed tree, children visited in ascending image order.
/// Colour images are assigned lazily: the first node whose child colours
/// include unassigned ones forces their image *set* (the smallest unused
/// values — any other set emits a lexicographically larger sorted list at
/// that very node), and only the assignment *within* the set branches.
/// Every emitted byte is compared against the incumbent best; a byte above
/// the incumbent prunes the whole assignment subtree.
struct SerialisedView::Canon {
  const SerialisedView& t;
  int k;
  std::vector<std::uint8_t> cur;
  std::vector<std::uint8_t> best;
  bool have_best = false;
  std::uint64_t best_generation = 0;
  ColourPerm best_perm;
  ColourPerm perm;              // colour → image, kNoColour = unassigned
  std::vector<char> value_used;  // image → taken
  // 0: cur is byte-equal to best's prefix; 1: cur is already strictly
  // smaller (no more comparisons needed on this branch).
  int state = 0;

  explicit Canon(const SerialisedView& view)
      : t(view),
        k(view.k()),
        perm(static_cast<std::size_t>(view.k()) + 1, gk::kNoColour),
        value_used(static_cast<std::size_t>(view.k()) + 1, 0) {}

  bool emit(std::uint8_t b) {
    if (have_best && state == 0) {
      const std::uint8_t incumbent = best[cur.size()];
      if (b > incumbent) return false;
      if (b < incumbent) state = 1;
    }
    cur.push_back(b);
    return true;
  }

  void run() {
    if (!emit(static_cast<std::uint8_t>(k))) return;  // never prunes (no best yet)
    step({0});
    // Complete the witness over colours that never appear in the tree:
    // unused images to unassigned colours, both ascending (deterministic,
    // and irrelevant to the bytes).
    std::vector<char> taken(static_cast<std::size_t>(k) + 1, 0);
    for (int c = 1; c <= k; ++c) taken[best_perm[static_cast<std::size_t>(c)]] = 1;
    Colour next = 1;
    for (int c = 1; c <= k; ++c) {
      if (best_perm[static_cast<std::size_t>(c)] != gk::kNoColour) continue;
      while (taken[next]) ++next;
      best_perm[static_cast<std::size_t>(c)] = next;
      taken[next] = 1;
    }
  }

  /// Processes the pending DFS stack (top = next node) to completion or
  /// prune.  Branching copies the stack so each assignment explores the
  /// full remaining traversal.
  void step(std::vector<std::int32_t> stack) {
    std::vector<std::pair<Colour, std::int32_t>> order;
    while (!stack.empty()) {
      const Node& node = t.nodes_[static_cast<std::size_t>(stack.back())];
      stack.pop_back();
      if (node.truncated) {
        if (!emit(0xff)) return;
        continue;
      }
      if (!emit(static_cast<std::uint8_t>(node.child_count))) return;
      // Partition this node's child colours into assigned and unassigned.
      std::vector<Colour> unassigned;
      for (std::int32_t i = 0; i < node.child_count; ++i) {
        const Colour c =
            t.child_colours_[static_cast<std::size_t>(node.first_child + i)];
        if (perm[c] == gk::kNoColour) unassigned.push_back(c);
      }
      if (unassigned.empty()) {
        order.clear();
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const std::size_t slot = static_cast<std::size_t>(node.first_child + i);
          order.emplace_back(perm[t.child_colours_[slot]], t.child_nodes_[slot]);
        }
        std::sort(order.begin(), order.end());
        bool pruned = false;
        for (const auto& [c, child] : order) {
          if (!emit(c)) {
            pruned = true;
            break;
          }
        }
        if (pruned) return;
        for (auto it = order.rbegin(); it != order.rend(); ++it) stack.push_back(it->second);
        continue;
      }
      // Branch point.  The image set is forced: the smallest unused values.
      std::sort(unassigned.begin(), unassigned.end());
      std::vector<Colour> images;
      for (int v = 1; v <= k &&
                         images.size() < unassigned.size(); ++v) {
        if (!value_used[v]) images.push_back(v);
      }
      const std::size_t saved_len = cur.size();
      const int saved_state = state;
      const std::uint64_t saved_generation = best_generation;
      do {
        for (std::size_t i = 0; i < unassigned.size(); ++i) {
          perm[unassigned[i]] = images[i];
          value_used[images[i]] = 1;
        }
        std::vector<std::int32_t> continuation = stack;
        // Re-enter this node with its colours now assigned: emission falls
        // into the unassigned.empty() path above.  The count byte is
        // already out, so hand step() a tree position just past it — done
        // by emitting the colour list here and pushing the children.
        order.clear();
        for (std::int32_t i = 0; i < node.child_count; ++i) {
          const std::size_t slot = static_cast<std::size_t>(node.first_child + i);
          order.emplace_back(perm[t.child_colours_[slot]], t.child_nodes_[slot]);
        }
        std::sort(order.begin(), order.end());
        bool pruned = false;
        for (const auto& [c, child] : order) {
          if (!emit(c)) {
            pruned = true;
            break;
          }
        }
        if (!pruned) {
          for (auto it = order.rbegin(); it != order.rend(); ++it) {
            continuation.push_back(it->second);
          }
          step(std::move(continuation));
        }
        // Restore the emission state for the next assignment.
        cur.resize(saved_len);
        state = best_generation == saved_generation ? saved_state : 0;
        for (std::size_t i = 0; i < unassigned.size(); ++i) {
          perm[unassigned[i]] = gk::kNoColour;
          value_used[images[i]] = 0;
        }
      } while (std::next_permutation(images.begin(), images.end()));
      return;  // every continuation ran inside the loop
    }
    // Complete serialisation.  state == 0 with a best means byte-equal:
    // keep the earlier witness.
    if (!have_best || state == 1) {
      best = cur;
      best_perm = perm;
      have_best = true;
      ++best_generation;
      state = 0;  // cur now equals best's prefix by definition
    }
  }
};

void SerialisedView::canonicalise(std::vector<std::uint8_t>& out, ColourPerm* witness) const {
  require_orbit_k(k_, "SerialisedView::canonicalise");
  Canon canon(*this);
  canon.run();
  out.insert(out.end(), canon.best.begin(), canon.best.end());
  if (witness) *witness = std::move(canon.best_perm);
}

std::vector<ColourPerm> serialisation_stabiliser(const std::vector<std::uint8_t>& bytes) {
  return SerialisedView(bytes).stabiliser();
}

// ---------------------------------------------------------------------------
// CanonicalStore.
// ---------------------------------------------------------------------------

ViewId CanonicalStore::intern(const std::vector<std::uint8_t>& bytes) {
  return intern(bytes.data(), bytes.size());
}

ViewId CanonicalStore::intern(const ColourSystem& view, int radius) {
  scratch_.clear();
  view.serialize_into(radius, scratch_);
  return intern(scratch_.data(), scratch_.size());
}

ViewId CanonicalStore::intern(const std::uint8_t* data, std::size_t n) {
  if (2 * (hashes_.size() + 1) > table_.size()) grow();
  const std::uint64_t hash = mix64(fnv1a(data, n));
  const std::size_t s = slot(data, n, hash);
  if (table_[s] != kNullView) return table_[s];
  const ViewId id = size();
  table_[s] = id;
  arena_.insert(arena_.end(), data, data + n);
  offsets_.push_back(arena_.size());
  hashes_.push_back(hash);
  return id;
}

ViewId CanonicalStore::find(const std::vector<std::uint8_t>& bytes) const {
  if (table_.empty()) return kNullView;
  return table_[slot(bytes.data(), bytes.size(), mix64(fnv1a(bytes)))];
}

std::size_t CanonicalStore::slot(const std::uint8_t* data, std::size_t n,
                                 std::uint64_t hash) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const ViewId id = table_[s];
    if (id == kNullView) return s;
    const auto i = static_cast<std::size_t>(id);
    if (hashes_[i] == hash && offsets_[i + 1] - offsets_[i] == n &&
        std::equal(data, data + n, arena_.data() + offsets_[i])) {
      return s;
    }
  }
}

void CanonicalStore::grow() {
  table_.assign(table_.empty() ? 16 : 2 * table_.size(), kNullView);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t id = 0; id < hashes_.size(); ++id) {
    std::size_t s = hashes_[id] & mask;
    while (table_[s] != kNullView) s = (s + 1) & mask;
    table_[s] = static_cast<ViewId>(id);
  }
}

std::vector<std::uint8_t> CanonicalStore::bytes(ViewId id) const {
  if (id < 0 || id >= size()) throw std::out_of_range("CanonicalStore::bytes: bad id");
  const auto i = static_cast<std::size_t>(id);
  return std::vector<std::uint8_t>(arena_.data() + offsets_[i], arena_.data() + offsets_[i + 1]);
}

std::size_t CanonicalStore::resident_bytes() const noexcept {
  return arena_.capacity() + offsets_.capacity() * sizeof(std::size_t) +
         hashes_.capacity() * sizeof(std::uint64_t) + table_.capacity() * sizeof(ViewId);
}

}  // namespace dmm::colsys
