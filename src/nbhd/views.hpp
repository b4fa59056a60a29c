// Neighbourhood graphs (Remark 2, after Linial [14]).
//
// For radius ρ and d-regular k-colour systems, the ρ-views form a finite
// set: complete depth-ρ d-regular coloured trees.  Two views A, B are
// c-compatible if some instance contains a c-edge {u, v} with
// ball_ρ(u) = A and ball_ρ(v) = B; for trees this is a local condition —
// A's subtree across its c-edge, cut to depth ρ-1, must equal B without
// its own c-branch, cut to depth ρ-1, and vice versa.
//
// An r-round algorithm is exactly an (M1)-respecting labelling of the
// (r+1)-view catalogue; (M2)/(M3) become constraints along compatible
// pairs.  csp.hpp turns non-existence of such labellings into a search —
// Linial's proof technique, executable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "colsys/canon.hpp"
#include "colsys/colour_system.hpp"

namespace dmm::nbhd {

using colsys::ColourPerm;
using colsys::ColourSystem;
using gk::Colour;

class ViewCatalogue;
class OrbitCatalogue;

// ---------------------------------------------------------------------------
// The compatible-pair relation as complete bipartite classes.
//
// (A, B, c) is compatible iff across(A, c) = remainder(B, c) and
// across(B, c) = remainder(A, c), where across is the subtree at the root's
// c-child and remainder the view without its c-branch, both cut to depth
// ρ-1.  So the (view, colour) memberships sharing one (remainder, across, c)
// triple form a class, and every member of a class is compatible with every
// member of its partner class: the triple with its two halves swapped.  A
// class whose halves coincide is its own partner — its members are pairwise
// compatible, each with itself too.  The relation is the union of these
// bicliques: at k = 4, ρ = 3 its 9 570 312 pairs (19.1 M directed arcs) are
// 2 916 classes over 236 196 memberships, so the CSP solver and the pair
// emitter both work class by class and never build a per-arc structure.
//
// Each catalogue builds its index once, in its constructor, and keeps it:
// compatible_pairs, solve and check_labelling all read that one object, and
// nothing else can build one.
// ---------------------------------------------------------------------------

class BicliqueIndex {
 public:
  static constexpr std::int32_t kNoClass = -1;

  int k() const noexcept { return k_; }
  int view_count() const noexcept { return views_; }
  std::int32_t class_count() const noexcept { return static_cast<std::int32_t>(colour_.size()); }

  /// The class of membership (view, c), or kNoClass when the view has no
  /// c-edge.
  std::int32_t class_of(int view, Colour c) const { return class_of_[slot(view, c)]; }
  /// class_of(view, c) for c = 1..k.  Since the halves cover the view's
  /// branches, two views are equal to radius ρ iff these rows are equal.
  std::span<const std::int32_t> classes(int view) const {
    return {class_of_.data() + slot(view, 1), static_cast<std::size_t>(k_)};
  }
  Colour colour(std::int32_t cls) const { return colour_[static_cast<std::size_t>(cls)]; }
  /// The class whose members are cls's partners (the same colour), or
  /// kNoClass when no membership completes cls.
  std::int32_t partner(std::int32_t cls) const { return partner_[static_cast<std::size_t>(cls)]; }
  /// The members of cls, ascending.
  std::span<const std::int32_t> members(std::int32_t cls) const {
    const std::size_t first = start_[static_cast<std::size_t>(cls)];
    return {members_.data() + first, start_[static_cast<std::size_t>(cls) + 1] - first};
  }
  /// The number of compatible pairs: |K|·|P| per class pair {K, P},
  /// |K|(|K|+1)/2 per self-partnered class K.
  std::uint64_t pair_count() const noexcept { return pair_count_; }

  /// Calls fn(a, b, c) for every compatible pair, a <= b, ascending in
  /// (a, c, b) — each unordered pair once, from its smaller view.
  template <class Fn>
  void for_each_pair(Fn&& fn) const {
    for (int a = 0; a < views_; ++a) {
      for (int c = 1; c <= k_; ++c) {
        const std::int32_t cls = class_of(a, c);
        if (cls == kNoClass || partner(cls) == kNoClass) continue;
        const std::span<const std::int32_t> bs = members(partner(cls));
        for (auto b = std::lower_bound(bs.begin(), bs.end(), a); b != bs.end(); ++b) {
          fn(a, *b, static_cast<Colour>(c));
        }
      }
    }
  }

 private:
  friend class ViewCatalogue;
  friend class OrbitCatalogue;

  BicliqueIndex() = default;

  /// Both halves of every membership are serialised and interned into dense
  /// ids, and the classes are keyed exactly on (remainder id, across id)
  /// per colour.
  explicit BicliqueIndex(const ViewCatalogue& catalogue);

  /// The same index over the member (orbit, coset) indices, built at orbit
  /// level: the two halves are serialised once per (representative, colour)
  /// and canonised once per distinct serialisation, and each member's half
  /// identity is the group element lifting it through the representative's
  /// witness — no per-member serialisation.  Equals the index of
  /// expand_catalogue(c) class for class.
  explicit BicliqueIndex(const OrbitCatalogue& catalogue);

  std::size_t slot(int view, Colour c) const {
    return static_cast<std::size_t>(view) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(c - 1);
  }
  /// Groups the memberships into classes from their interned halves.
  void group(const colsys::TransformCache& remainder, const colsys::TransformCache& across);

  int k_ = 0;
  int views_ = 0;
  std::vector<std::int32_t> class_of_;  // per slot view * k + (c - 1)
  std::vector<Colour> colour_;          // per class
  std::vector<std::int32_t> partner_;   // per class
  std::vector<std::size_t> start_;      // class_count() + 1 offsets into members_
  std::vector<std::int32_t> members_;
  std::uint64_t pair_count_ = 0;
};

/// A catalogue of radius-ρ views (index = view id) with the biclique index
/// of their compatible pairs.  Read-only once built.
class ViewCatalogue {
 public:
  /// Takes the views and builds their BicliqueIndex.  Throws
  /// std::invalid_argument when rho < 1 or when two views are equal to
  /// radius rho (their class rows, BicliqueIndex::classes, are compared).
  ViewCatalogue(int k, int d, int rho, std::vector<ColourSystem> views);

  int k() const noexcept { return k_; }
  int d() const noexcept { return d_; }
  int rho() const noexcept { return rho_; }
  int size() const noexcept { return static_cast<int>(views_.size()); }
  const std::vector<ColourSystem>& views() const noexcept { return views_; }
  const ColourSystem& view(int id) const { return views_[static_cast<std::size_t>(id)]; }
  const BicliqueIndex& index() const noexcept { return index_; }

 private:
  int k_;
  int d_;
  int rho_;
  std::vector<ColourSystem> views_;
  BicliqueIndex index_;
};

/// Enumerates every radius-ρ view arising in d-regular k-colour systems
/// (distinct by construction: one per choice vector).  Throws if the
/// catalogue would exceed `max_views` (guards the exponential blow-up).
ViewCatalogue enumerate_views(int k, int d, int rho, int max_views = 2'000'000);

/// True iff views A and B can sit at the two ends of a colour-c edge of
/// some d-regular instance.
bool c_compatible(const ColourSystem& a, const ColourSystem& b, Colour c, int rho);

struct CompatiblePair {
  int a = 0;  // view ids
  int b = 0;
  Colour colour = gk::kNoColour;
};

/// All compatible (a, b, c) triples with a <= b, ascending in (a, c, b):
/// the catalogue index's for_each_pair as a vector.
std::vector<CompatiblePair> compatible_pairs(const ViewCatalogue& catalogue);

// ---------------------------------------------------------------------------
// Colour-permutation orbit reduction.
//
// The view catalogue is closed under the S_k action relabelling colours
// globally, so it carries ~k! copies of every tree; the same holds for the
// compatible-pair index.  An OrbitCatalogue stores one canonical
// representative per orbit plus its stabiliser and the sorted left-coset
// permutations that regenerate the members — a ~k!-fold cut in materialised
// trees.  The labelling CSP itself must NOT be quotiented (a satisfiable
// catalogue need not admit a colour-symmetric labelling — see
// docs/lowerbound.md, "Colour symmetry"), so the orbit-mode solver expands
// the member views back through the witnesses; what the quotient buys is
// the catalogue/pair-index construction and storage, and a canonical
// (input-permutation-invariant) CSP instance.
// ---------------------------------------------------------------------------

/// Closed-form Burnside census of the catalogue: views (= the raw count)
/// and orbits, both exact in double precision for every parameter set whose
/// counts stay below 2^53.  Pure arithmetic — never enumerates, so it is
/// the guard and the headline number for catalogues far beyond
/// materialisation (k = 5, ρ = 3: 21 474 836 480 views, 178 981 952
/// orbits — exactly the 5! = 120-fold cut, views at this depth having
/// almost no colour symmetry).
struct OrbitCensus {
  double views = 0;
  double orbits = 0;
};
OrbitCensus orbit_census(int k, int d, int rho);

/// One representative per orbit with its stabiliser and member cosets, and
/// the biclique index over the member views.  Read-only once built.  The
/// members are distinct by the coset construction, so unlike ViewCatalogue
/// the constructor does not compare them.
class OrbitCatalogue {
 public:
  /// Takes the orbits (three vectors of one length) and builds the index
  /// over their members.  Throws std::invalid_argument when the lengths
  /// differ, rho < 1, or the members overflow the index's int32 ids.
  OrbitCatalogue(int k, int d, int rho, std::vector<ColourSystem> reps,
                 std::vector<std::vector<ColourPerm>> stabilisers,
                 std::vector<std::vector<ColourPerm>> cosets);

  int k() const noexcept { return k_; }
  int d() const noexcept { return d_; }
  int rho() const noexcept { return rho_; }
  /// One orbit-canonical representative per orbit, sorted by canonical
  /// serialisation bytes — an order independent of any relabelling of the
  /// input, which is what makes the orbit pipeline metamorphically stable.
  const std::vector<ColourSystem>& reps() const noexcept { return reps_; }
  /// Per orbit: the stabiliser of the representative in S_k (contains id).
  const std::vector<std::vector<ColourPerm>>& stabilisers() const noexcept {
    return stabilisers_;
  }
  /// Per orbit: sorted canonical left-coset representatives σ; the orbit's
  /// members are σ·rep, so cosets()[o].size() == k!/|stabilisers()[o]| and
  /// the member views of the whole catalogue are indexed (orbit, coset) in
  /// lexicographic order.
  const std::vector<std::vector<ColourPerm>>& cosets() const noexcept { return cosets_; }
  /// offsets()[o] is the member index of cosets()[o][0]; offsets().back()
  /// is the total member count (== the raw catalogue size).
  const std::vector<std::int64_t>& offsets() const noexcept { return offsets_; }
  const BicliqueIndex& index() const noexcept { return index_; }

  int orbit_count() const noexcept { return static_cast<int>(reps_.size()); }
  std::int64_t view_count() const noexcept { return offsets_.back(); }

 private:
  int k_;
  int d_;
  int rho_;
  std::vector<ColourSystem> reps_;
  std::vector<std::vector<ColourPerm>> stabilisers_;
  std::vector<std::vector<ColourPerm>> cosets_;
  std::vector<std::int64_t> offsets_;
  BicliqueIndex index_;
};

/// Counters from an orderly generation run (orderly_orbit_reps /
/// enumerate_orbits).  On the orderly path no raw view is ever replayed:
/// `views_replayed` stays 0 and `member_views` is the closed-form
/// Σ k!/|Stab(rep)| — the raw catalogue size reached without walking it.
struct OrbitGenStats {
  std::int64_t reps_generated = 0;
  /// Raw views materialised along the way (0 for orderly generation; the
  /// PR 5 replay-fold in reduce_catalogue walks one per member).
  std::int64_t views_replayed = 0;
  /// Partial choice vectors pruned by the incremental is-canonical test.
  std::int64_t prefixes_rejected = 0;
  /// Orbit sizes summed in closed form; exact below 2^53.
  double member_views = 0;
  /// False iff the callback stopped the walk early.
  bool complete = false;
};

/// One canonical orbit representative as streamed by orderly_orbit_reps.
struct OrderlyRep {
  /// The representative's serialisation — already orbit-canonical (the
  /// generator never emits a view that fails to canonise to itself), and
  /// emitted in ascending lexicographic byte order.
  std::vector<std::uint8_t> bytes;
  /// Ordinal of this rep in emission (== canonical-bytes) order.
  std::int64_t index = 0;
  /// Stabiliser of the representative in S_k, sorted by Lehmer rank.
  std::vector<ColourPerm> stabiliser;
};

/// McKay-style orderly generation: walks the augmentation tree of partial
/// choice vectors in canonical order, prunes every prefix whose completions
/// cannot be orbit-canonical (SerialisedView::prefix_rejects), and streams
/// exactly the canonical orbit representatives — no raw view is ever
/// materialised.  Return false from `fn` to stop early (stats.complete
/// records whether the walk ran dry).  Unbounded: the caller guards scale,
/// e.g. with orbit_census.
OrbitGenStats orderly_orbit_reps(int k, int d, int rho,
                                 const std::function<bool(OrderlyRep&&)>& fn);

/// Enumerates the catalogue modulo colour permutation via orderly
/// generation: only the canonical representatives are built (+ stabiliser
/// and member cosets per orbit), so `max_views` guards *reps generated*,
/// not raw members.  The member views must still fit the index's int32 ids
/// (k = 5, ρ = 3, with 2.1×10¹⁰ members, throws before generating; its reps
/// stream through orderly_orbit_reps).  The rep set is cross-checked against
/// the closed-form Burnside census before returning; `stats`, when given,
/// receives the generation counters.
OrbitCatalogue enumerate_orbits(int k, int d, int rho, int max_views = 2'000'000,
                                OrbitGenStats* stats = nullptr);

/// Folds an explicit catalogue into orbits.  For a full enumerate_views
/// catalogue this equals enumerate_orbits (and the result is identical for
/// any globally colour-permuted copy of the input).
OrbitCatalogue reduce_catalogue(const ViewCatalogue& catalogue);

/// Materialises every member view, in (orbit, coset) order.  Inverse of
/// reduce_catalogue up to view order.
ViewCatalogue expand_catalogue(const OrbitCatalogue& catalogue);

/// All compatible (a, b, c) triples over the member index space, a <= b,
/// ascending in (a, c, b): the catalogue index's for_each_pair as a vector,
/// which equals compatible_pairs(expand_catalogue(catalogue)) exactly.
std::vector<CompatiblePair> compatible_pairs(const OrbitCatalogue& catalogue);

}  // namespace dmm::nbhd
