// The greedy maximal matching algorithm (§1.2, Figure 1, Lemma 1).
//
// Step i considers all edges of colour i in parallel; an edge {u, v} of
// colour i joins the matching iff neither endpoint is matched yet.  Step 1
// needs no communication, so the running time is exactly k-1 rounds.
//
// Three equivalent realisations are provided and cross-validated in tests:
//   * greedy_outputs        — centralised reference implementation,
//   * GreedyProgram         — message-passing state machine for the engines,
//   * GreedyLocal           — the §2.3 functional form (input: radius-k view),
//     which is what the lower-bound adversary interrogates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "local/algorithm.hpp"
#include "local/engine.hpp"

namespace dmm::algo {

using gk::Colour;

/// Reference implementation on a whole instance.
std::vector<Colour> greedy_outputs(const graph::EdgeColouredGraph& g);

/// Reference implementation on a colour system (tree instance); processes
/// the parent edges of all nodes, colours in increasing order.  Exact on
/// every node whose greedy fate is determined inside the truncation; callers
/// are responsible for only trusting sufficiently interior nodes.
std::vector<Colour> greedy_outputs(const colsys::ColourSystem& system);

/// Message-passing greedy.  Halts at round c-1 when matched along colour c;
/// an never-matched node halts once its largest incident colour has been
/// resolved.  Round t reads only the colour-(t+1) port, so a node can act
/// only in the rounds c-1 of its incident colours c: next_active_round
/// names the next one, and the flat engine lets the node sleep until then.
class GreedyProgram final : public local::NodeProgram {
 public:
  bool init(std::span<const Colour> incident) override;
  void send(int round, local::Outbox& out) override;
  bool receive(int round, const local::Inbox& in) override;
  Colour output() const override { return output_; }
  int next_active_round(int round) const noexcept override;
  // Checkpoint hooks: the whole dynamic state is {matched_, output_} — the
  // incident colours are re-derived by init.  Two bytes per node.
  // load_state rejects (std::invalid_argument) a state no run produces:
  // matched on a colour not incident to the node, or unmatched with an
  // output other than ⊥.
  void save_state(std::string& out) const override;
  void load_state(std::string_view in) override;

 private:
  bool try_finish(int completed_step);

  // The node's sorted incident colours, borrowed from the engine's row
  // rather than copied, so a greedy run performs no per-node allocation
  // at all.  A pointer and an int, not a 16-byte span: the program stays
  // at 24 bytes, and the programs are most of the n = 10⁷ row's memory
  // (test_engine_scale).
  const Colour* incident_ = nullptr;
  int degree_ = 0;
  Colour output_ = local::kUnmatched;
  bool matched_ = false;
  // The first port whose colour is not decided yet (degree ≤ 255, so one
  // byte).  receive reads that port alone, and next_active_round answers
  // from it.  Not checkpoint state: receive re-derives it from the round,
  // so a resumed run starts it at 0.
  std::uint8_t cursor_ = 0;
};

static_assert(sizeof(GreedyProgram) <= 24, "one vtable pointer, one row pointer, 8 bytes of state");

/// One GreedyProgram per node (accepted directly by local::run/run_sync/
/// run_flat).
local::ProgramSource greedy_program_factory();

/// Functional greedy (running time k-1): simulates the greedy process on
/// the radius-k view and reports the root's fate, which the locality
/// argument of §1.2 shows is exact.
class GreedyLocal final : public local::LocalAlgorithm {
 public:
  explicit GreedyLocal(int k) : k_(k) {}
  int running_time() const override { return k_ - 1; }
  Colour evaluate(const colsys::ColourSystem& view) const override;
  std::string name() const override { return "greedy(k=" + std::to_string(k_) + ")"; }

 private:
  int k_;
};

}  // namespace dmm::algo
