#include "nbhd/views.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>

#include "colsys/canon.hpp"
#include "util/hash.hpp"

namespace dmm::nbhd {

namespace {

/// All size-`count` subsets of [k] that contain `forced` (or any subsets
/// if forced == kNoColour), in the canonical enumeration order the view
/// catalogue is defined by (lexicographic over the ascending colour pool).
void subsets(int k, int count, Colour forced, std::vector<std::vector<Colour>>& out) {
  std::vector<Colour> pool;
  for (int c = 1; c <= k; ++c) {
    if (c != forced) pool.push_back(c);
  }
  const int pick = forced == gk::kNoColour ? count : count - 1;
  if (pick < 0 || pick > static_cast<int>(pool.size())) return;
  std::vector<int> idx(static_cast<std::size_t>(pick));
  // Standard combination enumeration.
  for (int i = 0; i < pick; ++i) idx[static_cast<std::size_t>(i)] = i;
  while (true) {
    std::vector<Colour> chosen;
    if (forced != gk::kNoColour) chosen.push_back(forced);
    for (int i : idx) chosen.push_back(pool[static_cast<std::size_t>(i)]);
    std::sort(chosen.begin(), chosen.end());
    out.push_back(std::move(chosen));
    // Advance.
    int i = pick - 1;
    while (i >= 0 && idx[static_cast<std::size_t>(i)] ==
                         static_cast<int>(pool.size()) - pick + i) {
      --i;
    }
    if (i < 0) break;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < pick; ++j) {
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

/// Replays every choice vector of the catalogue into its tree, in the
/// canonical order (root digit most significant; within a level, lower BFS
/// indices cycle faster; deeper levels cycle faster than shallower ones),
/// and hands each view to `fn`.  Throws before building anything when the
/// closed-form count exceeds `max_views`.  Drives the raw enumeration and
/// the replay-fold oracle (reduce_catalogue); the orbit enumeration itself
/// now runs on the orderly generator below and never replays these views.
void for_each_view(int k, int d, int rho, int max_views,
                   const std::function<void(ColourSystem&&)>& fn) {
  if (d < 1 || d > k) throw std::invalid_argument("enumerate_views: need 1 <= d <= k");
  if (k > gk::kMaxColours) throw std::invalid_argument("enumerate_views: need k <= 255");
  if (rho < 1) throw std::invalid_argument("enumerate_views: need rho >= 1");

  // The choice structure of a complete d-regular depth-rho view: the root
  // picks one of C(k, d) colour sets; every deeper internal node picks one
  // of C(k-1, d-1) extension sets given its parent colour.  All views share
  // one skeleton (level t has d·(d-1)^(t-1) nodes), so the catalogue is the
  // mixed-radix space of per-node choices — counted in closed form first,
  // which turns the blow-up guard into arithmetic instead of an out-of-
  // memory march (the seed built trees for up to max_views partials before
  // throwing).
  std::vector<std::vector<Colour>> root_options;
  subsets(k, d, gk::kNoColour, root_options);
  // Child option lists per parent colour, with the parent colour removed
  // (it names the upward edge): the remaining d-1 downward colours.
  std::vector<std::vector<std::vector<Colour>>> child_options(static_cast<std::size_t>(k) + 1);
  for (int p = 1; p <= k; ++p) {
    std::vector<std::vector<Colour>> with;
    subsets(k, d, p, with);
    for (auto& s : with) {
      s.erase(std::remove(s.begin(), s.end(), p), s.end());
      child_options[p].push_back(std::move(s));
    }
  }
  const std::size_t root_radix = root_options.size();
  const std::size_t child_radix = child_options[1].size();

  // Level sizes and the total count, with overflow saturation.
  std::vector<std::size_t> level_nodes{1};
  double total = static_cast<double>(root_radix);
  if (total > static_cast<double>(max_views)) {
    throw std::runtime_error("enumerate_views: catalogue exceeds max_views");
  }
  std::size_t internal_nodes = 1;
  for (int t = 1; t < rho; ++t) {
    // d·(d-1)^(t-1) nodes at level t.
    std::size_t m = static_cast<std::size_t>(d);
    for (int i = 1; i < t; ++i) m *= static_cast<std::size_t>(d - 1);
    level_nodes.push_back(m);
    internal_nodes += m;
    total *= std::pow(static_cast<double>(child_radix), static_cast<double>(m));
    if (total > static_cast<double>(max_views)) {
      throw std::runtime_error("enumerate_views: catalogue exceeds max_views");
    }
  }
  const std::size_t count = static_cast<std::size_t>(total);
  // Nodes per view: the internal levels plus the d·(d-1)^(rho-1) leaves.
  const double tree_nodes =
      static_cast<double>(internal_nodes) + d * std::pow(d - 1.0, rho - 1.0);
  if (tree_nodes > std::numeric_limits<colsys::NodeId>::max()) {
    throw std::runtime_error("enumerate_views: a view exceeds the node id range");
  }

  std::vector<std::size_t> choices(internal_nodes, 0);  // BFS layout, root first
  std::vector<std::size_t> level_offset(static_cast<std::size_t>(rho), 0);
  for (int t = 1; t < rho; ++t) {
    level_offset[static_cast<std::size_t>(t)] =
        level_offset[static_cast<std::size_t>(t - 1)] + level_nodes[static_cast<std::size_t>(t - 1)];
  }
  for (std::size_t n = 0; n < count; ++n) {
    std::size_t rem = n;
    for (int t = rho - 1; t >= 1; --t) {
      const std::size_t off = level_offset[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < level_nodes[static_cast<std::size_t>(t)]; ++i) {
        choices[off + i] = rem % child_radix;
        rem /= child_radix;
      }
    }
    choices[0] = rem;

    // One block per tree.  Nodes are appended in BFS order, so the node
    // array is its own BFS queue, and the internal nodes are its first
    // internal_nodes entries: node v takes choice v.
    ColourSystem view(k, colsys::kExactRadius);
    view.reserve(static_cast<int>(tree_nodes));
    for (std::size_t v = 0; v < internal_nodes; ++v) {
      const auto node = static_cast<colsys::NodeId>(v);
      const auto& options = v == 0 ? root_options : child_options[view.parent_colour(node)];
      for (Colour c : options[choices[v]]) view.add_child(node, c);
    }
    fn(std::move(view));
  }
}

}  // namespace

ViewCatalogue enumerate_views(int k, int d, int rho, int max_views) {
  // Each choice vector is a different tree, so the views are distinct as
  // built; the constructor's check confirms it through the index.
  std::vector<ColourSystem> views;
  for_each_view(k, d, rho, max_views,
                [&](ColourSystem&& view) { views.push_back(std::move(view)); });
  return ViewCatalogue(k, d, rho, std::move(views));
}

bool c_compatible(const ColourSystem& a, const ColourSystem& b, Colour c, int rho) {
  const colsys::NodeId ac = a.child(ColourSystem::root(), c);
  const colsys::NodeId bc = b.child(ColourSystem::root(), c);
  if (ac == colsys::kNullNode || bc == colsys::kNullNode) return false;
  // A's half across c, to depth rho-1 (the subtree at its c-child), must
  // equal B without its own c-branch, to depth rho-1 — and vice versa.
  std::vector<std::uint8_t> lhs, rhs;
  a.serialize_subtree_into(ac, gk::kNoColour, rho - 1, lhs);
  b.serialize_subtree_into(ColourSystem::root(), c, rho - 1, rhs);
  if (lhs != rhs) return false;
  lhs.clear();
  rhs.clear();
  b.serialize_subtree_into(bc, gk::kNoColour, rho - 1, lhs);
  a.serialize_subtree_into(ColourSystem::root(), c, rho - 1, rhs);
  return lhs == rhs;
}

namespace {

/// Throws unless the views' class rows are pairwise distinct.  A view's
/// c-class fixes its c-branch to depth ρ (the across half) and whether it
/// has one, so the rows are equal iff the views are equal to radius ρ.
/// The rows are interned in one open-addressed table of view ids.
void require_distinct_views(const BicliqueIndex& index) {
  const int n = index.view_count();
  const std::size_t capacity = std::bit_ceil(2 * static_cast<std::size_t>(n) + 16);
  std::vector<std::int32_t> table(capacity, -1);
  for (int v = 0; v < n; ++v) {
    const std::span<const std::int32_t> row = index.classes(v);
    std::size_t at = mix64(fnv1a(row.data(), row.size_bytes())) & (capacity - 1);
    for (; table[at] >= 0; at = (at + 1) & (capacity - 1)) {
      if (std::ranges::equal(index.classes(table[at]), row)) {
        throw std::invalid_argument("ViewCatalogue: views " + std::to_string(table[at]) +
                                    " and " + std::to_string(v) + " are equal to radius rho");
      }
    }
    table[at] = v;
  }
}

}  // namespace

ViewCatalogue::ViewCatalogue(int k, int d, int rho, std::vector<ColourSystem> views)
    : k_(k), d_(d), rho_(rho), views_(std::move(views)) {
  if (rho < 1) throw std::invalid_argument("ViewCatalogue: need rho >= 1");
  index_ = BicliqueIndex(*this);
  require_distinct_views(index_);
}

BicliqueIndex::BicliqueIndex(const ViewCatalogue& catalogue)
    : k_(catalogue.k()), views_(catalogue.size()) {
  // The per-view work is two direct subtree serialisations (no rerooted,
  // pruned or restricted tree copies), interned into one id space, so a
  // match between halves is integer equality.  The two per-(view, colour)
  // root transforms are dense maps keyed by the view's catalogue index.
  const int rho = catalogue.rho();
  colsys::CanonicalStore store;
  colsys::TransformCache across(k_), remainder(k_);
  std::vector<std::uint8_t> buf;
  for (int a = 0; a < views_; ++a) {
    const ColourSystem& view = catalogue.view(a);
    for (int c = 1; c <= k_; ++c) {
      const colsys::NodeId child = view.child(ColourSystem::root(), c);
      if (child == colsys::kNullNode) continue;
      buf.clear();
      view.serialize_subtree_into(child, gk::kNoColour, rho - 1, buf);
      across.put(a, c, store.intern(buf));
      buf.clear();
      view.serialize_subtree_into(ColourSystem::root(), c, rho - 1, buf);
      remainder.put(a, c, store.intern(buf));
    }
  }
  group(remainder, across);
}

void BicliqueIndex::group(const colsys::TransformCache& remainder,
                          const colsys::TransformCache& across) {
  // Class keys are exact: per colour, the two non-negative 32-bit half ids
  // side by side in one 64-bit word.  Class ids are handed out in
  // (view, colour) order.
  const auto halves = [](colsys::ViewId first, colsys::ViewId second) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(first)) << 32 |
           static_cast<std::uint32_t>(second);
  };
  std::vector<std::unordered_map<std::uint64_t, std::int32_t>> by_halves(
      static_cast<std::size_t>(k_) + 1);
  std::vector<std::uint64_t> key;  // per class: halves(remainder, across)
  class_of_.assign(static_cast<std::size_t>(views_) * static_cast<std::size_t>(k_), kNoClass);
  start_.assign(1, 0);
  for (int v = 0; v < views_; ++v) {
    for (int c = 1; c <= k_; ++c) {
      const colsys::ViewId acr = across.get(v, c);
      if (acr == colsys::kUncachedView) continue;
      const std::uint64_t h = halves(remainder.get(v, c), acr);
      const auto [it, fresh] = by_halves[c].try_emplace(h, class_count());
      if (fresh) {
        colour_.push_back(c);
        key.push_back(h);
        start_.push_back(0);
      }
      class_of_[slot(v, c)] = it->second;
      ++start_[static_cast<std::size_t>(it->second) + 1];
    }
  }
  const std::size_t classes = colour_.size();
  for (std::size_t cls = 0; cls < classes; ++cls) start_[cls + 1] += start_[cls];
  // Members ascend because the fill walks the views in order.
  members_.resize(start_.back());
  std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
  for (int v = 0; v < views_; ++v) {
    for (int c = 1; c <= k_; ++c) {
      const std::int32_t cls = class_of(v, c);
      if (cls != kNoClass) members_[fill[static_cast<std::size_t>(cls)]++] = v;
    }
  }
  // The partner is the same colour's class with the halves swapped.
  partner_.assign(classes, kNoClass);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const auto& map = by_halves[colour_[cls]];
    const auto it = map.find(key[cls] << 32 | key[cls] >> 32);
    if (it != map.end()) partner_[cls] = it->second;
  }
  for (std::int32_t cls = 0; cls < class_count(); ++cls) {
    const std::uint64_t size = members(cls).size();
    if (partner(cls) == cls) {
      pair_count_ += size * (size + 1) / 2;
    } else if (partner(cls) > cls) {
      pair_count_ += size * members(partner(cls)).size();
    }
  }
}

namespace {

/// The index's pairs as a vector, reserved to pair_count() up front so it
/// never regrows.
std::vector<CompatiblePair> pair_list(const BicliqueIndex& index) {
  std::vector<CompatiblePair> out;
  out.reserve(index.pair_count());
  index.for_each_pair([&out](int a, int b, Colour c) { out.push_back({a, b, c}); });
  return out;
}

}  // namespace

std::vector<CompatiblePair> compatible_pairs(const ViewCatalogue& catalogue) {
  return pair_list(catalogue.index());
}

// ---------------------------------------------------------------------------
// Orbit census (Burnside / Cauchy–Frobenius over the S_k colour action).
// ---------------------------------------------------------------------------

namespace {

/// Cycle decomposition of σ restricted to the colour set `mask` (σ must map
/// mask onto itself); each cycle is reported as (length, minimal colour).
void cycles_on(const ColourPerm& sigma, unsigned mask,
               std::vector<std::pair<int, Colour>>& out) {
  out.clear();
  unsigned todo = mask;
  while (todo != 0) {
    const int first = std::countr_zero(todo);
    const Colour start = static_cast<Colour>(first + 1);
    int length = 0;
    Colour c = start;
    do {
      todo &= ~(1u << (c - 1));
      c = sigma[c];
      ++length;
    } while (c != start);
    out.emplace_back(length, start);
  }
}

ColourPerm perm_power(const ColourPerm& sigma, int e) {
  ColourPerm out = colsys::identity_perm(static_cast<int>(sigma.size()) - 1);
  for (int i = 0; i < e; ++i) out = colsys::compose_perm(sigma, out);
  return out;
}

/// Number of depth-`rem` hanging structures below an edge of colour p that
/// are fixed by σ (requires σ(p) == p).  Memoised per (σ rank, rem, p).
double fixed_hanging(int rem, const ColourPerm& sigma, Colour p, int k, int d,
                     std::map<std::tuple<std::uint32_t, int, Colour>, double>& memo) {
  if (rem == 0) return 1.0;
  const auto key = std::make_tuple(colsys::perm_rank(sigma), rem, p);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  double total = 0.0;
  std::vector<std::pair<int, Colour>> cycle_list;
  // σ-invariant (d-1)-subsets S of [k] \ {p}: the node's downward colours.
  const unsigned pool = (k >= 32 ? ~0u : ((1u << k) - 1)) & ~(1u << (p - 1));
  for (unsigned s = 0; s < (1u << k); ++s) {
    if ((s & ~pool) != 0 || std::popcount(s) != d - 1) continue;
    unsigned image = 0;
    for (int c = 1; c <= k; ++c) {
      if (s & (1u << (c - 1))) image |= 1u << (sigma[static_cast<std::size_t>(c)] - 1);
    }
    if (image != s) continue;
    cycles_on(sigma, s, cycle_list);
    double product = 1.0;
    for (const auto& [length, c] : cycle_list) {
      product *= fixed_hanging(rem - 1, perm_power(sigma, length), c, k, d, memo);
    }
    total += product;
  }
  memo.emplace(key, total);
  return total;
}

/// Number of whole views fixed by σ.
double fixed_views(const ColourPerm& sigma, int k, int d, int rho,
                   std::map<std::tuple<std::uint32_t, int, Colour>, double>& memo) {
  double total = 0.0;
  std::vector<std::pair<int, Colour>> cycle_list;
  for (unsigned s = 0; s < (1u << k); ++s) {
    if (std::popcount(s) != d) continue;
    unsigned image = 0;
    for (int c = 1; c <= k; ++c) {
      if (s & (1u << (c - 1))) image |= 1u << (sigma[static_cast<std::size_t>(c)] - 1);
    }
    if (image != s) continue;
    cycles_on(sigma, s, cycle_list);
    double product = 1.0;
    for (const auto& [length, c] : cycle_list) {
      product *= fixed_hanging(rho - 1, perm_power(sigma, length), c, k, d, memo);
    }
    total += product;
  }
  return total;
}

}  // namespace

OrbitCensus orbit_census(int k, int d, int rho) {
  if (d < 1 || d > k) throw std::invalid_argument("orbit_census: need 1 <= d <= k");
  if (rho < 1) throw std::invalid_argument("orbit_census: need rho >= 1");
  if (k > colsys::kMaxOrbitColours) {
    throw std::invalid_argument("orbit_census: k too large for the orbit machinery");
  }
  OrbitCensus census;
  std::map<std::tuple<std::uint32_t, int, Colour>, double> memo;
  double sum = 0.0;
  double group_order = 0.0;
  for (const ColourPerm& sigma : colsys::all_perms(k)) {
    const double fixed = fixed_views(sigma, k, d, rho, memo);
    sum += fixed;
    group_order += 1.0;
    if (colsys::perm_rank(sigma) == 0) census.views = fixed;  // the identity
  }
  census.orbits = sum / group_order;
  return census;
}

// ---------------------------------------------------------------------------
// Orbit catalogues.
// ---------------------------------------------------------------------------

namespace {

/// Folds views into orbits.  On the first member of each orbit the view is
/// canonised (branch and bound) and the orbit's *entire* member set is
/// pre-generated as serialisations of the representative under every coset
/// permutation — every later member of the orbit then resolves by a single
/// hash lookup instead of a canonisation.  This is what keeps the orbit
/// enumeration of the 78 732-view k = 4, ρ = 3 catalogue at roughly the
/// cost of the raw enumeration while materialising only ~1/k! of the trees.
class OrbitBuilder {
 public:
  OrbitBuilder(int k, int d, int rho) : k_(k), d_(d), rho_(rho) {
    if (k > colsys::kMaxOrbitColours) {
      throw std::invalid_argument("orbit reduction: k too large for the orbit machinery");
    }
    perms_ = colsys::all_perms(k);
  }

  /// Pre-sizes the member index (one entry per raw view) so the fold never
  /// rehashes mid-stream.
  void reserve(std::size_t raw_views) { members_.reserve(raw_views); }

  void add(const ColourSystem& view) {
    buf_.clear();
    view.serialize_into(rho_, buf_);
    auto it = members_.find(buf_);
    if (it == members_.end()) {
      new_orbit(view);
      it = members_.find(buf_);
      if (it == members_.end()) {
        throw std::logic_error("OrbitBuilder: view missing from its own orbit");
      }
    }
    auto& [orbit, coset] = it->second;
    orbits_[static_cast<std::size_t>(orbit)].present[static_cast<std::size_t>(coset)] = 1;
  }

  OrbitCatalogue finish() {
    // Canonical-bytes order: independent of the order (and of any global
    // colour relabelling) of the input views.
    std::vector<std::size_t> order(orbits_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    // Elementwise instead of vector::operator< only to dodge GCC 12's
    // -Wstringop-overread false positive on memcmp-lowered byte compares.
    const auto bytes_less = [](const std::vector<std::uint8_t>& a,
                               const std::vector<std::uint8_t>& b) {
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return a.size() < b.size();
    };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return bytes_less(orbits_[a].canonical, orbits_[b].canonical);
    });
    std::vector<ColourSystem> reps;
    std::vector<std::vector<ColourPerm>> stabilisers, cosets;
    for (const std::size_t i : order) {
      Orbit& orbit = orbits_[i];
      std::vector<ColourPerm> present_cosets;
      for (std::size_t j = 0; j < orbit.cosets.size(); ++j) {
        if (orbit.present[j]) present_cosets.push_back(orbit.cosets[j]);
      }
      reps.push_back(std::move(orbit.rep));
      stabilisers.push_back(std::move(orbit.stabiliser));
      cosets.push_back(std::move(present_cosets));
    }
    return OrbitCatalogue(k_, d_, rho_, std::move(reps), std::move(stabilisers),
                          std::move(cosets));
  }

 private:
  struct Orbit {
    ColourSystem rep;
    std::vector<std::uint8_t> canonical;
    std::vector<ColourPerm> stabiliser;
    std::vector<ColourPerm> cosets;  // all of them, sorted
    std::vector<char> present;
    Orbit(ColourSystem r, std::vector<std::uint8_t> c)
        : rep(std::move(r)), canonical(std::move(c)) {}
  };

  void new_orbit(const ColourSystem& view) {
    const colsys::SerialisedView parsed(buf_);
    std::vector<std::uint8_t> canonical;
    ColourPerm witness;
    parsed.canonicalise(canonical, &witness);
    const colsys::SerialisedView canon_parsed(canonical);
    const int orbit = static_cast<int>(orbits_.size());
    orbits_.emplace_back(view.permuted(witness), canonical);
    Orbit& record = orbits_.back();
    record.stabiliser = canon_parsed.stabiliser();
    // Canonical left-coset representatives, sorted and deduplicated by
    // Lehmer rank (the same order as lexicographic on the image words);
    // sort + unique keeps this O(k! log k!) rather than a quadratic scan.
    std::vector<std::pair<std::uint32_t, ColourPerm>> ranked;
    ranked.reserve(perms_.size());
    for (const ColourPerm& sigma : perms_) {
      ColourPerm rep = colsys::min_coset_rep(sigma, record.stabiliser);
      ranked.emplace_back(colsys::perm_rank(rep), std::move(rep));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ranked.erase(std::unique(ranked.begin(), ranked.end(),
                             [](const auto& a, const auto& b) { return a.first == b.first; }),
                 ranked.end());
    std::vector<ColourPerm> cosets;
    cosets.reserve(ranked.size());
    for (auto& [rank, rep] : ranked) cosets.push_back(std::move(rep));
    record.present.assign(cosets.size(), 0);
    // Pre-generate every member's serialisation for O(1) later folding.
    std::vector<std::uint8_t> member;
    for (std::size_t j = 0; j < cosets.size(); ++j) {
      member.clear();
      canon_parsed.serialise(cosets[j], member);
      members_.emplace(std::move(member), std::make_pair(orbit, static_cast<int>(j)));
      member = {};
    }
    record.cosets = std::move(cosets);
  }

  int k_, d_, rho_;
  std::vector<ColourPerm> perms_;
  std::vector<Orbit> orbits_;
  std::unordered_map<std::vector<std::uint8_t>, std::pair<int, int>,
                     colsys::SerialisationHash>
      members_;
  std::vector<std::uint8_t> buf_;
};

/// Rebuilds a ColourSystem from its serialisation (recursive descent over
/// the [k] + preorder node-segment format).  The orderly generator hands
/// out canonical bytes only, so this is the whole rep materialisation.
ColourSystem view_from_bytes(int k, const std::vector<std::uint8_t>& bytes) {
  ColourSystem view(k, colsys::kExactRadius);
  std::size_t pos = 1;  // bytes[0] is the k byte
  std::vector<Colour> cols;
  const auto rec = [&](auto&& self, colsys::NodeId node) -> void {
    const std::uint8_t head = bytes.at(pos++);
    if (head == 0xff) return;  // leaf by truncation
    cols.clear();
    for (int i = 0; i < head; ++i) cols.push_back(bytes.at(pos++));
    std::vector<colsys::NodeId> kids;
    kids.reserve(cols.size());
    for (const Colour c : cols) kids.push_back(view.add_child(node, c));
    for (const colsys::NodeId kid : kids) self(self, kid);
  };
  rec(rec, ColourSystem::root());
  return view;
}

/// Canonical left-coset representatives of `stabiliser` over the whole of
/// S_k, sorted and deduplicated by Lehmer rank — the full member list of
/// one orbit.  (Orderly generation sees the full catalogue by definition,
/// so unlike the replay-fold there is no `present` subset to track.)
std::vector<ColourPerm> all_cosets(const std::vector<ColourPerm>& perms,
                                   const std::vector<ColourPerm>& stabiliser) {
  std::vector<std::pair<std::uint32_t, ColourPerm>> ranked;
  ranked.reserve(perms.size());
  for (const ColourPerm& sigma : perms) {
    ColourPerm rep = colsys::min_coset_rep(sigma, stabiliser);
    ranked.emplace_back(colsys::perm_rank(rep), std::move(rep));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ranked.erase(std::unique(ranked.begin(), ranked.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
               ranked.end());
  std::vector<ColourPerm> cosets;
  cosets.reserve(ranked.size());
  for (auto& [rank, rep] : ranked) cosets.push_back(std::move(rep));
  return cosets;
}

}  // namespace

OrbitGenStats orderly_orbit_reps(int k, int d, int rho,
                                 const std::function<bool(OrderlyRep&&)>& fn) {
  if (d < 1 || d > k) throw std::invalid_argument("orderly_orbit_reps: need 1 <= d <= k");
  if (rho < 1) throw std::invalid_argument("orderly_orbit_reps: need rho >= 1");
  if (k > colsys::kMaxOrbitColours) {
    throw std::invalid_argument("orderly_orbit_reps: k too large for the orbit machinery");
  }
  // Per-node colour-set options, exactly as in for_each_view: assigning
  // them in the skeleton's preorder makes the identity serialisation grow
  // as a literal byte prefix, and walking each option list in its ascending
  // order emits the surviving (canonical) views in ascending lexicographic
  // byte order — already the OrbitCatalogue rep order, no sort needed.
  std::vector<std::vector<Colour>> root_options;
  subsets(k, d, gk::kNoColour, root_options);
  std::vector<std::vector<std::vector<Colour>>> child_options(static_cast<std::size_t>(k) + 1);
  for (int p = 1; p <= k; ++p) {
    std::vector<std::vector<Colour>> with;
    subsets(k, d, p, with);
    for (auto& s : with) {
      s.erase(std::remove(s.begin(), s.end(), p), s.end());
      child_options[p].push_back(std::move(s));
    }
  }
  double fact = 1.0;
  for (int i = 2; i <= k; ++i) fact *= static_cast<double>(i);

  colsys::SerialisedView skeleton(k, d, rho);
  const std::vector<std::int32_t>& order = skeleton.internal_preorder();
  std::vector<Colour> pcolour(static_cast<std::size_t>(skeleton.node_count()), gk::kNoColour);

  OrbitGenStats stats;
  bool stopped = false;
  const auto dfs = [&](auto&& self, std::size_t idx) -> void {
    if (idx == order.size()) {
      // Every internal node assigned: the test is exact here, and the tie
      // set of a surviving view is precisely its stabiliser.
      std::vector<ColourPerm> stab;
      if (skeleton.prefix_rejects(&stab)) {
        ++stats.prefixes_rejected;
        return;
      }
      OrderlyRep rep;
      rep.bytes = skeleton.prefix_bytes();
      rep.index = stats.reps_generated++;
      stats.member_views += fact / static_cast<double>(stab.size());
      rep.stabiliser = std::move(stab);
      if (!fn(std::move(rep))) stopped = true;
      return;
    }
    const std::int32_t node = order[idx];
    const Colour parent = pcolour[static_cast<std::size_t>(node)];
    const auto& options = parent == gk::kNoColour ? root_options : child_options[parent];
    const int count = skeleton.child_count_of(node);
    for (const auto& opt : options) {
      skeleton.push_assignment(opt.data());
      // Prefix rejection: if some permutation already beats the assigned
      // bytes, no completion of this subtree can be canonical — the whole
      // augmentation subtree is pruned in one test.  The complete level
      // runs the exact test above instead, so skip the duplicate walk.
      if (idx + 1 < order.size() && skeleton.prefix_rejects()) {
        ++stats.prefixes_rejected;
      } else {
        for (int i = 0; i < count; ++i) {
          pcolour[static_cast<std::size_t>(skeleton.child_node(node, i))] = opt[static_cast<std::size_t>(i)];
        }
        self(self, idx + 1);
      }
      skeleton.pop_assignment();
      if (stopped) return;
    }
  };
  dfs(dfs, 0);
  stats.complete = !stopped;
  return stats;
}

OrbitCatalogue enumerate_orbits(int k, int d, int rho, int max_views, OrbitGenStats* stats) {
  // The guard is the closed-form Burnside census of *orbits* — reps
  // generated — not raw views: the orderly path never materialises a
  // non-canonical view, so the raw count no longer bounds anything.
  const OrbitCensus census = orbit_census(k, d, rho);
  if (census.orbits > static_cast<double>(max_views)) {
    throw std::runtime_error("enumerate_orbits: orbit catalogue exceeds max_views");
  }
  if (census.views > static_cast<double>(std::numeric_limits<std::int32_t>::max())) {
    throw std::runtime_error("enumerate_orbits: member views exceed the index's int32 ids");
  }
  const auto orbits = static_cast<std::size_t>(census.orbits);
  std::vector<ColourSystem> reps;
  std::vector<std::vector<ColourPerm>> stabilisers, cosets;
  reps.reserve(orbits);
  stabilisers.reserve(orbits);
  cosets.reserve(orbits);
  double members = 0;
  const std::vector<ColourPerm> perms = colsys::all_perms(k);
  const OrbitGenStats gen = orderly_orbit_reps(k, d, rho, [&](OrderlyRep&& rep) {
    reps.push_back(view_from_bytes(k, rep.bytes));
    cosets.push_back(all_cosets(perms, rep.stabiliser));
    members += static_cast<double>(cosets.back().size());
    stabilisers.push_back(std::move(rep.stabiliser));
    return true;
  });
  // A generation bug would silently drop orbits and flip UNSAT verdicts;
  // the census is exact and independent, so disagreeing with it is fatal.
  if (static_cast<double>(reps.size()) != census.orbits || members != census.views) {
    throw std::logic_error(
        "enumerate_orbits: orderly generation disagrees with the Burnside census");
  }
  if (stats != nullptr) *stats = gen;
  return OrbitCatalogue(k, d, rho, std::move(reps), std::move(stabilisers), std::move(cosets));
}

OrbitCatalogue reduce_catalogue(const ViewCatalogue& catalogue) {
  OrbitBuilder builder(catalogue.k(), catalogue.d(), catalogue.rho());
  builder.reserve(catalogue.views().size());
  for (const ColourSystem& view : catalogue.views()) builder.add(view);
  return builder.finish();
}

ViewCatalogue expand_catalogue(const OrbitCatalogue& catalogue) {
  std::vector<ColourSystem> views;
  views.reserve(static_cast<std::size_t>(catalogue.view_count()));
  for (int o = 0; o < catalogue.orbit_count(); ++o) {
    for (const ColourPerm& sigma : catalogue.cosets()[static_cast<std::size_t>(o)]) {
      views.push_back(catalogue.reps()[static_cast<std::size_t>(o)].permuted(sigma));
    }
  }
  return ViewCatalogue(catalogue.k(), catalogue.d(), catalogue.rho(), std::move(views));
}

OrbitCatalogue::OrbitCatalogue(int k, int d, int rho, std::vector<ColourSystem> reps,
                               std::vector<std::vector<ColourPerm>> stabilisers,
                               std::vector<std::vector<ColourPerm>> cosets)
    : k_(k),
      d_(d),
      rho_(rho),
      reps_(std::move(reps)),
      stabilisers_(std::move(stabilisers)),
      cosets_(std::move(cosets)),
      offsets_{0} {
  if (rho < 1) throw std::invalid_argument("OrbitCatalogue: need rho >= 1");
  if (stabilisers_.size() != reps_.size() || cosets_.size() != reps_.size()) {
    throw std::invalid_argument("OrbitCatalogue: one stabiliser and coset list per orbit");
  }
  offsets_.reserve(cosets_.size() + 1);
  for (const std::vector<ColourPerm>& orbit : cosets_) {
    offsets_.push_back(offsets_.back() + static_cast<std::int64_t>(orbit.size()));
  }
  index_ = BicliqueIndex(*this);
}

BicliqueIndex::BicliqueIndex(const OrbitCatalogue& catalogue) : k_(catalogue.k()) {
  // The raw index interns two half-trees per (view, colour) and keys
  // classes on both ids.  At orbit level a member (o, σ) is σ·rep, so its
  // half along c is σ·half(rep, σ⁻¹(c)) — i.e. (σ ∘ w⁻¹)·H where H is the
  // half's orbit-canonical form and w its witness.  Identity of halves
  // is therefore (H's intern id, the left coset of the lift modulo
  // Stab(H)): serialisation runs once per (rep, colour), canonisation once
  // per distinct serialisation, and every member key is a handful of
  // permutation compositions.
  const int k = k_;
  const int rho = catalogue.rho();
  const int orbit_count = catalogue.orbit_count();
  if (catalogue.view_count() > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("OrbitCatalogue: member views exceed the index's int32 ids");
  }
  views_ = static_cast<int>(catalogue.view_count());
  std::uint64_t fact = 1;
  for (int i = 2; i <= k; ++i) fact *= static_cast<std::uint64_t>(i);

  colsys::CanonicalStore half_store;
  const std::vector<ColourPerm> perms = colsys::all_perms(k);  // rank order
  // Per half id: a k!-entry table folding any permutation's rank to the
  // rank of its canonical left-coset representative modulo Stab(H), built
  // once per distinct half (there are few).  The member sweep below is
  // then one O(k²) rank per (member, colour, half) plus a table lookup.
  std::vector<std::vector<std::uint32_t>> coset_canon;
  struct HalfRef {
    colsys::ViewId id = colsys::kNullView;
    std::uint8_t lift[colsys::kMaxOrbitColours + 1] = {};  // half == lift · canonical_half
  };
  // Halves repeat heavily across representatives (at k = 4, ρ = 3 the
  // 19 980 halves are 54 distinct serialisations), so each serialisation
  // is interned first and canonised only on first sight; by_serial[id] is
  // its reference.
  colsys::CanonicalStore serial_store;
  std::vector<HalfRef> by_serial;
  const auto make_ref = [&](const std::vector<std::uint8_t>& bytes) {
    const colsys::ViewId serial = serial_store.intern(bytes);
    if (static_cast<std::size_t>(serial) < by_serial.size()) {
      return by_serial[static_cast<std::size_t>(serial)];
    }
    HalfRef ref;
    std::vector<std::uint8_t> canonical;
    ColourPerm witness;
    colsys::SerialisedView(bytes).canonicalise(canonical, &witness);
    ref.id = half_store.intern(canonical);
    if (static_cast<std::size_t>(ref.id) == coset_canon.size()) {
      const std::vector<ColourPerm> stab = colsys::serialisation_stabiliser(canonical);
      std::vector<std::uint32_t> table(fact);
      for (std::uint32_t r = 0; r < fact; ++r) {
        std::uint32_t best = ~std::uint32_t{0};
        for (const ColourPerm& s : stab) {
          best = std::min(best, colsys::perm_rank(colsys::compose_perm(perms[r], s)));
        }
        table[r] = best;
      }
      coset_canon.push_back(std::move(table));
    }
    const ColourPerm lift = colsys::inverse_perm(witness);
    for (int c = 1; c <= k; ++c) ref.lift[c] = lift[c];
    by_serial.push_back(ref);
    return ref;
  };
  // Per (orbit, colour): the two half references of the representative.
  std::vector<HalfRef> across_ref(static_cast<std::size_t>(orbit_count) * k);
  std::vector<HalfRef> remainder_ref(static_cast<std::size_t>(orbit_count) * k);
  std::vector<std::uint8_t> buf;
  for (int o = 0; o < orbit_count; ++o) {
    const ColourSystem& rep = catalogue.reps()[static_cast<std::size_t>(o)];
    for (int a = 1; a <= k; ++a) {
      const colsys::NodeId child = rep.child(ColourSystem::root(), a);
      if (child == colsys::kNullNode) continue;
      const std::size_t slot = static_cast<std::size_t>(o) * k + (a - 1);
      buf.clear();
      rep.serialize_subtree_into(child, gk::kNoColour, rho - 1, buf);
      across_ref[slot] = make_ref(buf);
      buf.clear();
      rep.serialize_subtree_into(ColourSystem::root(), a, rho - 1, buf);
      remainder_ref[slot] = make_ref(buf);
    }
  }

  // Member sweep: encode each (member, colour) half as
  // (half id) * k! + canonical coset rank of σ ∘ lift — the member's half
  // identity, mirroring the raw TransformCache of interned ids.  The rank
  // of the composition is computed straight off the image bytes (O(k²)
  // integer work, no allocation); the stabiliser fold is the table lookup.
  const auto encode = [&](const HalfRef& ref, const Colour* sigma) {
    std::uint8_t m[colsys::kMaxOrbitColours];
    for (int i = 0; i < k; ++i) m[i] = sigma[ref.lift[i + 1]];
    std::uint32_t rank = 0;
    for (int i = 0; i < k; ++i) {
      std::uint32_t smaller = 0;
      for (int j = i + 1; j < k; ++j) {
        if (m[j] < m[i]) ++smaller;
      }
      rank = rank * static_cast<std::uint32_t>(k - i) + smaller;
    }
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(ref.id)) * fact +
           coset_canon[static_cast<std::size_t>(ref.id)][rank];
  };
  // Dense ids for the (half, coset) encodings, in the same int32 layout as
  // the raw index's interned ids.  Distinct halves are few, so the
  // encodings index a flat table.
  std::vector<std::int32_t> dense(static_cast<std::size_t>(half_store.size()) * fact, -1);
  std::int32_t dense_count = 0;
  const auto densify = [&](std::uint64_t enc) {
    std::int32_t& id = dense[enc];
    if (id < 0) id = dense_count++;
    return id;
  };
  colsys::TransformCache across(k), remainder(k);
  colsys::ViewId v = 0;
  Colour sigma_inv[colsys::kMaxOrbitColours + 1];
  for (int o = 0; o < orbit_count; ++o) {
    for (const ColourPerm& sigma : catalogue.cosets()[static_cast<std::size_t>(o)]) {
      for (int c = 1; c <= k; ++c) sigma_inv[sigma[c]] = c;
      for (int c = 1; c <= k; ++c) {
        const Colour a = sigma_inv[c];
        const std::size_t rep_slot = static_cast<std::size_t>(o) * k + (a - 1);
        if (across_ref[rep_slot].id == colsys::kNullView) continue;
        across.put(v, c, densify(encode(across_ref[rep_slot], sigma.data())));
        remainder.put(v, c, densify(encode(remainder_ref[rep_slot], sigma.data())));
      }
      ++v;
    }
  }
  group(remainder, across);
}

std::vector<CompatiblePair> compatible_pairs(const OrbitCatalogue& catalogue) {
  return pair_list(catalogue.index());
}

}  // namespace dmm::nbhd
