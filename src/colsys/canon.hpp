// Hash-consed canonical forms for rooted coloured trees, and their
// quotient under global colour permutations.
//
// Everything on the lower-bound side of the library (the Remark-2 view
// catalogues, the compatible-pair index, the §3 adversary's evaluator memo)
// keys work on the canonical byte serialisation of some rooted tree.  The
// seed implementation re-serialised and copied those byte vectors at every
// lookup; a CanonicalStore interns each distinct serialisation exactly once
// and hands out a dense ViewId, so equality of trees becomes equality of
// 32-bit integers and memo tables become flat vectors indexed by id.  The
// store itself is flat hash-consing (Filliâtre and Conchon, "Type-safe
// modular hash-consing", 2006): the keys lie back to back in one byte arena
// and one open-addressed table of ids indexes them, so interning a key
// allocates nothing beyond amortised growth of those arrays.
//
// A TransformCache is the companion structure for the root surgeries the
// neighbourhood pipeline performs per (view, colour) — "the subtree across
// the root's c-edge" and "the view minus its c-branch" — expressed as
// dense (ViewId, Colour) → ViewId maps instead of repeated
// rerooted/pruned/restricted tree copies.
//
// Colour-permutation orbits.  Every structure above is also acted on by
// S_k relabelling the colours globally (π·V renames each edge colour c to
// π(c)); view catalogues and pair indices are closed under that action,
// so they carry ~k! copies of every structure.  The orbit layer quotients
// them: the *orbit-canonical form* of a view is the
// lexicographically smallest serialisation over all k! relabellings, found
// by an incremental branch-and-bound (colour images are assigned lazily in
// emission order and pruned against the incumbent — not a literal k! loop)
// in SerialisedView::canonicalise.  The witness permutation (the
// relabelling that realises the minimum) is what lets callers lift
// per-colour data between a raw view and its orbit representative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "colsys/colour_system.hpp"
#include "util/hash.hpp"

namespace dmm::colsys {

/// Dense id of an interned canonical serialisation.  Ids are assigned in
/// interning order starting at 0, so stores whose interning order mirrors a
/// catalogue's view order have ViewId == view index.
using ViewId = std::int32_t;

inline constexpr ViewId kNullView = -1;

// ---------------------------------------------------------------------------
// Colour permutations (elements of S_k acting on the colour alphabet).
// ---------------------------------------------------------------------------

/// perm[c] is the image of colour c for c ∈ [1, k]; perm[0] == kNoColour
/// always (⊥ is fixed by every relabelling), so perm.size() == k + 1.
using ColourPerm = std::vector<Colour>;

/// Largest k the orbit machinery accepts: stabiliser and coset sweeps
/// enumerate S_k, so k! must stay small (8! = 40320).
inline constexpr int kMaxOrbitColours = 8;

ColourPerm identity_perm(int k);
/// (a ∘ b)(c) = a(b(c)).
ColourPerm compose_perm(const ColourPerm& a, const ColourPerm& b);
ColourPerm inverse_perm(const ColourPerm& p);
/// All k! permutations in lexicographic order.  Requires k ≤ kMaxOrbitColours.
std::vector<ColourPerm> all_perms(int k);
/// Lexicographic rank (Lehmer code) of p among all_perms(k); < k!.
std::uint32_t perm_rank(const ColourPerm& p);
/// The lexicographically smallest element of the left coset σ·H, where H is
/// given by its element list (must contain the identity).
ColourPerm min_coset_rep(const ColourPerm& sigma, const std::vector<ColourPerm>& stab);

// ---------------------------------------------------------------------------
// Orbit-canonical serialisations.
// ---------------------------------------------------------------------------

/// A parsed canonical serialisation (the byte format emitted by
/// ColourSystem::serialize): a rooted tree whose nodes carry sorted child
/// colour lists, with explicit leaf-by-truncation markers.  Parsing once
/// makes the per-permutation work (re-emission, stabiliser checks, the
/// branch-and-bound minimisation) a traversal of flat arrays instead of a
/// ColourSystem surgery.
class SerialisedView {
 public:
  /// Parses serialize()-format bytes.  Throws std::invalid_argument on a
  /// malformed buffer.
  explicit SerialisedView(const std::vector<std::uint8_t>& bytes);
  /// Equivalent to SerialisedView(view.serialize(radius)) without the
  /// intermediate buffer.
  SerialisedView(const ColourSystem& view, int radius);

  /// Orderly-generation support: the shared serialisation *skeleton* of the
  /// complete d-regular depth-rho views (the root has d children, every
  /// deeper internal node d-1, depth-rho nodes are leaves-by-truncation).
  /// Nodes are laid out in preorder — the order their segments appear in
  /// the serialisation — with every child-colour slot unassigned.  Colours
  /// are then supplied one internal node at a time via push_assignment(),
  /// which keeps the identity serialisation of the assigned region
  /// available as a growing byte prefix (prefix_bytes()).
  SerialisedView(int k, int d, int rho);

  int k() const noexcept { return k_; }
  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }

  /// Preorder indices of the internal (non-truncated) nodes — the
  /// assignment order of the orderly walk.  Populated for every view.
  const std::vector<std::int32_t>& internal_preorder() const noexcept {
    return internal_order_;
  }
  /// Internal nodes whose child colours have been assigned.  A parsed view
  /// is fully assigned; a fresh skeleton starts at 0.
  int assigned() const noexcept { return assigned_; }
  int child_count_of(std::int32_t node) const {
    return nodes_[static_cast<std::size_t>(node)].child_count;
  }
  /// The i-th child (slot order) of an internal node.  In a skeleton, slot
  /// order is creation order, so assigning an ascending colour list gives
  /// slot i the i-th smallest downward colour.
  std::int32_t child_node(std::int32_t node, int i) const {
    return child_nodes_[static_cast<std::size_t>(
        nodes_[static_cast<std::size_t>(node)].first_child + i)];
  }

  /// Assigns the sorted child-colour list of the next unassigned internal
  /// node (preorder).  `colours` must hold child_count_of(that node)
  /// strictly ascending colours in [1, k].  Skeleton views only.
  void push_assignment(const Colour* colours);
  /// Undoes the most recent push_assignment.
  void pop_assignment();
  /// The identity serialisation of the assigned region: the bytes of
  /// serialise(id) that are already determined by the pushed assignments
  /// (the full serialisation once every internal node is assigned).
  const std::vector<std::uint8_t>& prefix_bytes() const noexcept { return prefix_; }

  /// Appends the serialisation of the π-relabelled tree to `out` — the
  /// bytes of permuted(π).serialize(radius), children re-sorted under π.
  void serialise(const ColourPerm& pi, std::vector<std::uint8_t>& out) const;

  /// Appends the orbit-canonical bytes (the lexicographic minimum of
  /// serialise(π) over all π ∈ S_k) to `out`.  `witness`, if non-null,
  /// receives one minimising π.  Branch-and-bound: colour images are
  /// assigned greedily in emission order (the first node that shows an
  /// unassigned colour set must receive the smallest unused images), and
  /// whole assignment subtrees are pruned the moment a byte exceeds the
  /// incumbent — for trees whose top levels pin the permutation this visits
  /// a tiny fraction of the k! relabellings.
  void canonicalise(std::vector<std::uint8_t>& out, ColourPerm* witness = nullptr) const;

  /// All π with serialise(π) == serialise(id): the stabiliser of the tree
  /// in S_k, in Lehmer-rank (= all_perms) order.  Always contains the
  /// identity.  Branch-and-bound: a π-branch dies at its first byte that
  /// differs from the identity serialisation, so the cost tracks the tree's
  /// actual symmetry instead of a literal k! re-serialisation sweep.
  std::vector<ColourPerm> stabiliser() const;

  /// Incremental is-canonical test over the assigned prefix (the orderly
  /// generator's prune).  Returns true iff there is a permutation π whose
  /// serialisation is certifiably smaller than the identity serialisation
  /// on bytes the assignment already determines — in which case *no*
  /// completion of the unassigned colours can be orbit-canonical, and the
  /// whole augmentation subtree may be skipped.  Sound but deliberately
  /// partial on prefixes (a π-branch that reaches an unassigned node is
  /// indeterminate and certifies nothing); on a fully assigned view the
  /// test is exact: it returns true iff the view is not its own
  /// orbit-canonical form.  `stabiliser`, allowed only on fully assigned
  /// views, receives the stabiliser (rank order) when the view is not
  /// rejected — a free by-product of the exhausted search.
  bool prefix_rejects(std::vector<ColourPerm>* stabiliser = nullptr) const;

 private:
  struct Node {
    std::int32_t first_child = 0;  // index into child_colours_/child_nodes_
    std::int32_t child_count = 0;
    bool truncated = false;  // leaf-by-truncation: emits 0xff, no child list
  };

  struct Canon;       // branch-and-bound minimisation state (canon.cpp)
  struct PrefixWalk;  // prefix-rejection / stabiliser walk state (canon.cpp)

  /// The identity-serialisation reference for the walkers: prefix_ when the
  /// skeleton machinery maintains it, else serialise(id) into `local`.
  const std::vector<std::uint8_t>& reference_bytes(std::vector<std::uint8_t>& local) const;

  int k_ = 0;
  std::vector<Node> nodes_;  // node 0 is the root
  std::vector<Colour> child_colours_;
  std::vector<std::int32_t> child_nodes_;
  // Orderly-generation state (see the skeleton constructor).  Parsed views
  // are fully assigned with an empty (lazily derived) prefix.
  std::vector<std::int32_t> internal_order_;  // preorder internal node indices
  std::int32_t assigned_ = 0;
  bool skeleton_ = false;
  std::vector<std::uint8_t> prefix_;
  std::vector<std::size_t> prefix_marks_;  // prefix_ length before each push
};

/// SerialisedView(bytes).stabiliser(), for one-shot callers.
std::vector<ColourPerm> serialisation_stabiliser(const std::vector<std::uint8_t>& bytes);

// ---------------------------------------------------------------------------
// Interning.
// ---------------------------------------------------------------------------

/// FNV-1a over serialisation bytes — the shared hasher for every map keyed
/// on canonical serialisations (the keys are short and high-entropy, so a
/// simple streaming hash beats fancier mixing).
struct SerialisationHash {
  std::size_t operator()(const std::vector<std::uint8_t>& bytes) const noexcept {
    return fnv1a(bytes);
  }
};

class CanonicalStore {
 public:
  /// Interns `bytes`, returning the existing id when the serialisation has
  /// been seen before (the bytes are copied only on first sight).
  ViewId intern(const std::vector<std::uint8_t>& bytes);

  /// Serialises view[radius] into an internal scratch buffer and interns it.
  ViewId intern(const ColourSystem& view, int radius);

  /// Id of a previously interned serialisation, or kNullView.
  ViewId find(const std::vector<std::uint8_t>& bytes) const;

  /// A copy of the interned bytes of an id.
  std::vector<std::uint8_t> bytes(ViewId id) const;

  std::int32_t size() const noexcept { return static_cast<std::int32_t>(hashes_.size()); }

  /// Heap footprint: the key arena, the per-id offsets and hashes, and the
  /// id table.  Reported by AdversaryStats so memo growth is observable.
  std::size_t resident_bytes() const noexcept;

 private:
  ViewId intern(const std::uint8_t* data, std::size_t n);
  /// The table slot holding the key's id, or the empty slot where the
  /// probe for it ends.  Requires a non-empty table.
  std::size_t slot(const std::uint8_t* data, std::size_t n, std::uint64_t hash) const;
  /// Doubles the table (16 slots at first) and re-files every id from its
  /// stored hash.
  void grow();

  // Key `id` is arena_[offsets_[id], offsets_[id + 1]); ids are dense and in
  // first-seen order.  hashes_[id] is mix64(fnv1a(key)), whose low bits pick
  // the home slot of the power-of-two table_ (linear probing, kNullView =
  // empty, at most half full).
  std::vector<std::uint8_t> arena_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint64_t> hashes_;
  std::vector<ViewId> table_;
  std::vector<std::uint8_t> scratch_;
};

/// Dense (ViewId, Colour) → ViewId memo for per-colour root transforms.
/// Entries default to kUncachedView; kNullView is a legal cached value
/// (meaning "the transform does not exist for this colour").
inline constexpr ViewId kUncachedView = -2;

class TransformCache {
 public:
  explicit TransformCache(int k) : k_(k) {}

  ViewId get(ViewId id, Colour c) const {
    const std::size_t slot = index(id, c);
    return slot < entries_.size() ? entries_[slot] : kUncachedView;
  }

  void put(ViewId id, Colour c, ViewId value) {
    const std::size_t slot = index(id, c);
    if (slot >= entries_.size()) entries_.resize(slot + 1, kUncachedView);
    entries_[slot] = value;
  }

  std::size_t resident_bytes() const noexcept { return entries_.size() * sizeof(ViewId); }

 private:
  std::size_t index(ViewId id, Colour c) const {
    return static_cast<std::size_t>(id) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(c - 1);
  }

  int k_;
  std::vector<ViewId> entries_;
};

}  // namespace dmm::colsys
