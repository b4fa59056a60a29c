// Realisations (§3.5) and the algorithm oracle.
//
// The realisation real(T, τ) of an h-template is its extension by the full
// free picker P(t) = F(T, τ, t): a d-regular colour system (d = k-1) in
// which every node v sits in the equivalence class p⁻¹(p(v)) of nodes with
// identical views (Corollary 2).  This lets us define A(T, τ, t) := A(V, v)
// for any representative v.
//
// We never materialise the d-regular realisation: the radius-(r+1) view of
// a representative of t is unfolded lazily.  A ball node is expanded
// knowing only its p-label t' and its arrival colour — its neighbour
// colours are exactly [k] − τ(t'), each leading to the label's tree
// neighbour (C-colour) or to the label itself (free colour).  Corollary 2
// is thereby built into the data structure: the view genuinely depends only
// on p-labels.
//
// Evaluator memoises A's answers by interned canonical view id: the
// radius-(r+1) serialisation is emitted straight off the template (no ball
// tree is materialised on a memo hit), hash-consed into a dense
// colsys::ViewId by a CanonicalStore, and the memo itself is a flat
// vector indexed by id.  The key is exact: A's output is a function of
// the radius-(r+1) view alone (§2.3), so equal views get equal answers.
// Every answer is (M1)-checked; any breach is packaged as a Certificate —
// a finite, re-checkable witness that A is not a correct maximal-matching
// algorithm (§2.4).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "colsys/canon.hpp"
#include "local/algorithm.hpp"
#include "lower/template.hpp"

namespace dmm::lower {

/// The radius-`radius` view of (a realisation copy of) node t in
/// real(T, τ), as a rooted colour system.  Requires
/// depth(t) + radius ≤ valid_radius of the template's tree.
ColourSystem realisation_ball(const Template& tmpl, NodeId t, int radius);

/// Appends the canonical serialisation of realisation_ball(tmpl, t, radius)
/// to `out` without materialising the ball: the bytes are identical to
/// realisation_ball(...).serialize(radius), but memo lookups pay only for
/// the byte emission.
void serialize_realisation_into(const Template& tmpl, NodeId t, int radius,
                                std::vector<std::uint8_t>& out);

/// A finite witness that the algorithm under test violates one of the
/// §2.4 properties on a concrete d-regular instance (the realisation of
/// `instance` — for a d-template, the instance itself).
struct Certificate {
  enum class Kind {
    M1,       // output not an incident colour of the realisation copy, nor ⊥
    M2,       // node claims colour c but its c-neighbour disagrees
    M3,       // two adjacent nodes both unmatched
    L9,       // Lemma 9: ⊥ at a node with a free colour (an M3 violation
              //   against its identically-viewed free-copy neighbour)
  };
  Kind kind;
  Template instance;
  NodeId node;                     // offending node (template coordinates)
  NodeId other = colsys::kNullNode;  // tree partner for M2/M3
  Colour colour = gk::kNoColour;   // colour involved
  Colour output = gk::kNoColour;   // A's output at `node`
  Colour other_output = gk::kNoColour;
  std::string detail;

  std::string describe() const;
};

class Evaluator {
 public:
  /// `memoise = false` disables the canonical-view cache (ablation E15);
  /// results are identical, only the evaluation count and time change.
  /// Every evaluation runs on the calling thread.
  explicit Evaluator(const local::LocalAlgorithm& algorithm, bool memoise = true)
      : algorithm_(algorithm), memoise_(memoise) {}

  /// A(T, τ, t): evaluates the algorithm on the realisation view of t.
  Colour operator()(const Template& tmpl, NodeId t);

  const local::LocalAlgorithm& algorithm() const noexcept { return algorithm_; }
  int radius() const { return algorithm_.running_time() + 1; }

  /// Serialises the whole memo state — interned canonical views, answers,
  /// counters — as one checksummed "EVAL" frame (io/serialize.hpp), so an
  /// interrupted adversary hunt can resume with the exact evaluation
  /// history of the uninterrupted run.  load() requires a freshly
  /// constructed evaluator with the same algorithm name and memo mode
  /// (throws std::runtime_error otherwise; byte damage raises
  /// io::CorruptFrameError).
  void save(std::ostream& out) const;
  void load(std::istream& in);

  /// Distinct views handed to A (every call when not memoising).
  std::uint64_t evaluations() const noexcept { return evaluations_; }
  std::uint64_t memo_hits() const noexcept { return memo_hits_; }
  /// Stored answers: distinct canonical views.
  std::uint64_t memo_entries() const noexcept {
    return static_cast<std::uint64_t>(store_.size());
  }
  /// Approximate heap footprint of the memo (interned keys + answers).
  std::size_t memo_bytes() const noexcept {
    return store_.resident_bytes() + memo_.capacity() * sizeof(Colour);
  }

 private:
  /// memo_ entry value meaning "not evaluated yet" (legal outputs are
  /// ⊥ = 0 and colours 1..k ≤ 30).
  static constexpr Colour kUnknownOutput = 0xff;

  const local::LocalAlgorithm& algorithm_;
  bool memoise_ = true;
  colsys::CanonicalStore store_;
  std::vector<Colour> memo_;  // by ViewId; kUnknownOutput = pending
  std::vector<std::uint8_t> buf_;  // serialisation scratch
  std::uint64_t evaluations_ = 0;
  std::uint64_t memo_hits_ = 0;
};

/// Evaluates A(T, τ, t) and checks (M1): the output must be ⊥ or a colour
/// in [k] − τ(t) (the incident colours of the realisation copy).  Returns
/// the output, or a Certificate if (M1) fails.
struct CheckedOutput {
  Colour output = gk::kNoColour;
  std::optional<Certificate> violation;
};
CheckedOutput evaluate_checked(Evaluator& eval, const Template& tmpl, NodeId t);

/// Recomputes the outputs stored in a certificate from scratch and confirms
/// the violation still holds — certificates are self-contained evidence.
bool certificate_holds(const Certificate& cert, Evaluator& eval);

}  // namespace dmm::lower
