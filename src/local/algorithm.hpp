// The two algorithm abstractions of the library.
//
// 1. LocalAlgorithm — the paper's formal definition (§2.3): a deterministic
//    distributed algorithm with running time r is a function of the
//    radius-(r+1) view (v̄V)[r+1].  This is the interface the lower-bound
//    adversary queries; it never sees anything but canonicalised balls, so
//    it cannot cheat on anonymity.
//
// 2. NodeProgram (engine.hpp) — an operational message-passing state
//    machine, driven by both simulation engines.  The two styles are
//    cross-validated in tests/test_model_equivalence.cpp.
//
// Local outputs use the paper's encoding (§2.4): kUnmatched (⊥) or the
// colour of the matched edge.
#pragma once

#include <string>

#include "colsys/colour_system.hpp"

namespace dmm::local {

using gk::Colour;

/// ⊥ — the node is unmatched.
inline constexpr Colour kUnmatched = gk::kNoColour;

class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  /// The running time r: the output may depend only on the radius-(r+1)
  /// view of the node.
  virtual int running_time() const = 0;

  /// Computes the local output from the view (v̄V)[r+1], given as a colour
  /// system rooted at the node.  Must be a pure function of the view.
  virtual Colour evaluate(const colsys::ColourSystem& view) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace dmm::local
