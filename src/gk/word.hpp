// The free Coxeter group G_k = <1,...,k | 1^2, ..., k^2>  (paper §2.1).
//
// Elements are reduced words over the colour alphabet [k] = {1,...,k}: a
// sequence c1 c2 ... cl with c_{i-1} != c_i.  The reduced form is unique and
// corresponds to the colour sequence of the unique path from the identity e
// to the element in the Cayley graph Γ_k, so |x| (the word length) is also
// the graph distance d(e, x).
//
// The API mirrors the paper's notation: tail(x), head(x), pred(x), the norm
// |x|, the inverse x̄, and the left-translation metric d(x,y) = |x̄ y|.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dmm::gk {

/// A colour in [k]; 1-based.  Colour 0 is reserved as "no colour".
using Colour = std::uint8_t;
inline constexpr Colour kNoColour = 0;
/// The largest k a Colour can name.  Loops over the colours [1, k] count in
/// int: a Colour counter would wrap from 255 to 0 and never end at k = 255.
inline constexpr int kMaxColours = 255;

/// An element of G_k in reduced form.
///
/// The class maintains the invariant that the stored letter sequence is
/// reduced (no two adjacent equal letters, every letter >= 1).  All factory
/// functions and operators preserve it; Word::letters() is always reduced.
class Word {
 public:
  /// The identity element e.
  Word() = default;

  /// The generator c (requires c >= 1).
  static Word generator(Colour c);

  /// Builds an element from an arbitrary (not necessarily reduced) letter
  /// sequence, performing free reduction cc -> e.
  static Word from_letters(const std::vector<Colour>& letters);

  /// Parses "e" or a string like "3.1.2" (colours separated by '.').
  static Word parse(const std::string& text);

  bool is_identity() const noexcept { return letters_.empty(); }

  /// The norm |x| = length of the reduced word = d(e, x) in Γ_k.
  int norm() const noexcept { return static_cast<int>(letters_.size()); }

  /// tail(x): the unique colour c with |xc| = |x| - 1 (the last letter).
  /// Requires x != e.
  Colour tail() const;

  /// head(x) = tail(x̄) (the first letter).  Requires x != e.
  Colour head() const;

  /// pred(x) = x * tail(x): the element one step closer to e.  Requires
  /// x != e.
  Word pred() const;

  /// The inverse x̄ = x^{-1} (the reversed word; each generator is an
  /// involution).
  Word inverse() const;

  /// Group operation with free reduction at the seam.
  Word operator*(const Word& rhs) const;

  /// Right-multiplication by a generator; the common hot path.
  Word operator*(Colour c) const;

  bool operator==(const Word& rhs) const noexcept = default;
  auto operator<=>(const Word& rhs) const noexcept = default;

  /// Reduced letters, head first.
  const std::vector<Colour>& letters() const noexcept { return letters_; }

  /// Human-readable form: "e" or "3.1.2".
  std::string str() const;

 private:
  std::vector<Colour> letters_;
};

/// Graph distance in Γ_k: d(x, y) = |x̄ y|.
int distance(const Word& x, const Word& y);

/// True iff |xy| = |x| + |y| (no cancellation at the seam), i.e. x == e,
/// y == e, or tail(x) != head(y).
bool norm_additive(const Word& x, const Word& y);

struct WordHash {
  std::size_t operator()(const Word& w) const noexcept;
};

}  // namespace dmm::gk
