// Existence of r-round algorithms as a constraint-satisfaction problem
// (Linial's technique, Remark 2) — the second, independent proof engine of
// this library.
//
// A deterministic r-round algorithm on d-regular k-colour systems is an
// assignment out : views(ρ = r+1) → {⊥} ∪ C(view) such that for every
// compatible pair (A, B, c):
//
//   (M2)  out(A) = c  ⇔  out(B) = c,
//   (M3)  not (out(A) = ⊥ and out(B) = ⊥).
//
// If no assignment exists, *no* r-round algorithm exists — a universal
// statement obtained by exhaustive search rather than the §3 adversary.
// The two engines cross-validate: the CSP is UNSAT exactly for r < k-1
// (checked for the parameters small enough to enumerate), and the greedy
// algorithm's own labelling is a solution at r = k-1.
#pragma once

#include <optional>
#include <vector>

#include "local/algorithm.hpp"
#include "nbhd/views.hpp"

namespace dmm::nbhd {

/// The most colours a catalogue may have for solve: domains are 32-bit
/// masks, bit 0 for ⊥ and bit c for colour c.
inline constexpr int kMaxCspColours = 30;

struct CspResult {
  bool satisfiable = false;
  /// One solution when satisfiable: out[view id] (⊥ = kNoColour).
  std::vector<Colour> labelling;
  std::uint64_t nodes_explored = 0;
  /// Forward-checking walks over a partner class that the search made; a
  /// walk the class's guard shows to be a no-op is skipped and not
  /// counted.  Like nodes_explored, deterministic only at threads == 1.
  std::uint64_t class_walks = 0;
};

struct CspOptions {
  /// Worker threads exploring the root variable's branchings in parallel.
  /// The verdict and (for SAT instances) the labelling are identical to the
  /// serial search — a branch may only be cancelled by a SAT result in a
  /// lower-indexed branch, so the winning branch always runs to completion.
  /// nodes_explored is deterministic only at threads == 1 (cancelled
  /// branches stop at a race-dependent point).
  int threads = 1;
};

/// Decides whether a valid labelling of the catalogue exists.  The
/// constraints are read off catalogue.index(): bitset domains (at most
/// d+1 values), arc consistency on per-class counters, then backtracking
/// with MRV and forward checking along partner classes, each class guarded
/// by the masks the current path has already applied to it.  No pair or arc
/// list is built.  Throws std::invalid_argument when k > kMaxCspColours.
CspResult solve(const ViewCatalogue& catalogue, const CspOptions& options = {});

/// Same, for a caller that already holds compatible_pairs(catalogue).  The
/// list is checked against the catalogue's index in one pass and must equal
/// it element for element (pair_count() entries, strictly ascending in
/// (a, c, b), each inside one class × partner); anything else throws
/// std::invalid_argument.  The search reads the index, not the list.
CspResult solve(const ViewCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options = {});

/// Orbit-mode solve: decides the SAME CSP as solve(expand_catalogue(c))
/// — every member view is a variable; the catalogue's symmetry quotient is
/// NOT applied to the solution space (a satisfiable instance need not have
/// a colour-symmetric labelling; see docs/lowerbound.md).  Domains and
/// constraints are read off the catalogue's member-level index, so no
/// member tree is materialised.  Because the orbit catalogue is canonically
/// ordered, verdict *and* nodes_explored are invariant under any global
/// colour relabelling of the original catalogue.  The labelling is indexed
/// by member (orbit, coset) order.
CspResult solve(const OrbitCatalogue& catalogue, const CspOptions& options = {});

/// Same, checking a caller's compatible_pairs(catalogue) against the
/// orbit-level index as the raw overload does.
CspResult solve(const OrbitCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options = {});

/// The labelling induced by a concrete algorithm (evaluating it on every
/// view).  The algorithm's running time must be rho-1.
std::vector<Colour> induced_labelling(const ViewCatalogue& catalogue,
                                      const local::LocalAlgorithm& algorithm);

/// Checks a labelling against (M1)+(M2)+(M3), reading catalogue.index();
/// returns the first violated pair, if any ((M1) as the pair {v, v, out}).
std::optional<CompatiblePair> check_labelling(const ViewCatalogue& catalogue,
                                              const std::vector<Colour>& labelling);

}  // namespace dmm::nbhd
