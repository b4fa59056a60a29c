#include "algo/runner.hpp"

#include <algorithm>
#include <memory>

#include "algo/greedy.hpp"
#include "algo/truncated_greedy.hpp"
#include "algo/zero_round_table.hpp"
#include "local/flooding.hpp"

namespace dmm::algo {

namespace {

EngineRealisation flooded(std::shared_ptr<const local::LocalAlgorithm> algorithm, int k) {
  EngineRealisation r;
  r.name = "flood:" + algorithm->name();
  r.round_bound = algorithm->running_time() + 1;
  r.factory = local::flooding_program_factory(std::move(algorithm), k);
  return r;
}

}  // namespace

std::vector<EngineRealisation> engine_realisations(int k, int flood_radius_cap) {
  std::vector<EngineRealisation> out;
  // The native message-passing greedy (Lemma 1), always available.
  out.push_back({"greedy", greedy_program_factory(), k + 1});

  const auto add_flooded = [&](std::shared_ptr<const local::LocalAlgorithm> algorithm) {
    if (algorithm->running_time() <= flood_radius_cap) {
      out.push_back(flooded(std::move(algorithm), k));
    }
  };

  // Flooding realisations of every LocalAlgorithm in src/algo/.
  add_flooded(std::make_shared<GreedyLocal>(k));
  add_flooded(std::make_shared<FirstColourLocal>(k));
  for (int r = 0; r <= k - 2; ++r) {
    add_flooded(std::make_shared<TruncatedGreedy>(k, r));
  }
  for (const std::uint64_t seed : {7ull, 99ull}) {
    add_flooded(std::make_shared<ArbitraryLocal>(k, std::min(2, std::max(0, k - 1)), seed));
  }
  if (k <= 3) {
    // A few 0-round table algorithms from the Lemma 4 enumeration.
    const std::uint64_t count = zero_round_algorithm_count(k);
    for (std::uint64_t index : {std::uint64_t{0}, count / 2, count - 1}) {
      add_flooded(std::make_shared<ZeroRoundTable>(make_zero_round_algorithm(k, index)));
    }
  }
  return out;
}

local::RunResult run_realisation(local::EngineKind kind, const graph::EdgeColouredGraph& g,
                                 const EngineRealisation& realisation) {
  return local::run(kind, g, realisation.factory, {realisation.round_bound});
}

}  // namespace dmm::algo
