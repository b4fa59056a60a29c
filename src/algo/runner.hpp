// Engine-runnable realisations of the library's algorithms.
//
// The library has two ways to put an algorithm on a simulation engine
// (local::EngineKind): a hand-written NodeProgram (greedy has one) and the
// generic full-information FloodingProgram (local/flooding.hpp), which
// turns any LocalAlgorithm into a message-passing program.  This registry
// enumerates both, by name, with a safe max_rounds bound — it is what the
// engine-equivalence suite, the CLI and the benches iterate so that every
// algorithm in src/algo/ runs on every engine.
#pragma once

#include <string>
#include <vector>

#include "local/engine.hpp"

namespace dmm::algo {

struct EngineRealisation {
  std::string name;
  local::ProgramSource factory;
  int round_bound = 0;  // safe max_rounds for this realisation on palette [k]
};

/// All realisations available on palette [k].  Flooding realisations
/// gather radius-(r+1) views, whose size is exponential in r on dense
/// graphs, so algorithms with running time above `flood_radius_cap` are
/// skipped (pass a larger cap for path-like instances where views stay
/// linear).
std::vector<EngineRealisation> engine_realisations(int k, int flood_radius_cap = 3);

/// Convenience: run one realisation on either engine.
local::RunResult run_realisation(local::EngineKind kind, const graph::EdgeColouredGraph& g,
                                 const EngineRealisation& realisation);

}  // namespace dmm::algo
