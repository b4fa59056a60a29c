// Incremental maximal matching under edge churn (ROADMAP scenario (a)).
//
// DynamicMatcher owns an instance and a maximal matching over it in the
// library's output encoding (outputs[v] = the colour v is matched along,
// local::kUnmatched = ⊥), seeded by a full LOCAL greedy run.  apply()
// mutates the graph by one ChurnBatch and repairs the matching locally
// instead of recomputing:
//
//   * insert {u, v}: the matching stays a matching; maximality can only
//     break at the new edge itself, and only when both endpoints are
//     free — in which case the edge is matched on the spot;
//   * delete of an unmatched edge: nothing changes anywhere;
//   * delete of a matched edge: both endpoints become free, and each
//     greedily re-matches along its lowest incident colour with a free
//     partner.  The two repairs cannot interfere: the deleted edge is
//     gone so u ∉ N(v), and a repair only turns free nodes matched, never
//     the reverse — so maximality, intact everywhere else before the op,
//     is restored by inspecting just N(u) ∪ N(v).
//
// Each repair therefore touches O(Δ) nodes, and each op also costs O(Δ)
// wall time: EdgeColouredGraph::add_edge / remove_edge scan only the
// endpoints' half-edges (plus, for a delete, those of the edge moved into
// the freed slot), and a re-match is a linear pass over one node's
// half-edges — nothing scales with n or m.  The stats() counters measure
// that locality and are pure functions of (instance, plan) —
// engine-, thread- and schedule-independent — which is what the e12 bench
// baseline gates exactly.  recompute() is the from-scratch oracle: a full
// LOCAL greedy run on the current graph through the session API, every
// oracle run sharing one local::Runtime across graph versions (one worker
// pool however many recomputes).  Incremental and oracle outputs need not
// be byte-equal — repair may keep an edge a fresh greedy run would not
// pick — but both must pass verify::check_outputs after every batch;
// docs/dynamic.md carries the invariant argument and
// tests/test_dynamic.cpp enforces it across the churn grid.
#pragma once

#include <cstdint>
#include <vector>

#include "dyn/churn.hpp"
#include "graph/edge_coloured_graph.hpp"
#include "local/engine.hpp"
#include "local/runtime.hpp"
#include "verify/matching.hpp"

namespace dmm::dyn {

struct MatcherOptions {
  /// Engine for the seeding run and for recompute(); either must agree
  /// with the other on maximality (they are bit-identical by the engine
  /// equivalence suite, so this only changes who does the work).
  local::EngineKind engine = local::EngineKind::kSync;
  /// Worker budget of the shared runtime backing flat oracle runs.
  int threads = 1;
};

/// Cumulative apply() accounting.  All pure functions of (instance, plan).
struct RepairStats {
  std::uint64_t batches = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  /// Matching edges created by repair: immediate matches of inserted
  /// edges plus greedy re-matches after a matched-edge delete.  (Deleting
  /// a matched edge is damage, not repair — it is not counted here.)
  std::uint64_t repairs = 0;
  /// Σ over batches of the distinct nodes whose matching state the batch
  /// read or wrote: op endpoints plus every neighbour a re-match scan
  /// inspected.  The locality claim, as a number.
  std::uint64_t touched_nodes = 0;
  /// Σ over batches of (node_count − touched): the per-node work a
  /// recompute-from-scratch would have redone for no reason.
  std::uint64_t recompute_avoided = 0;

  bool operator==(const RepairStats&) const = default;
};

class DynamicMatcher {
 public:
  /// Takes the instance by value and seeds the matching with a full LOCAL
  /// greedy run on it.
  explicit DynamicMatcher(graph::EdgeColouredGraph g, const MatcherOptions& options = {});

  const graph::EdgeColouredGraph& graph() const noexcept { return g_; }
  const std::vector<Colour>& outputs() const noexcept { return outputs_; }
  const RepairStats& stats() const noexcept { return stats_; }

  /// Applies the batch — ops in order, each repaired before the next —
  /// and updates the counters.  Invalid ops throw std::invalid_argument
  /// mid-batch; callers with a whole plan should prefer the ChurnPlan
  /// overload, which validates everything up front.
  void apply(const ChurnBatch& batch);

  /// Validates the whole plan against the current graph
  /// (ChurnPlan::require_applies — throws with the instance untouched),
  /// then applies every batch.
  void apply(const ChurnPlan& plan);

  /// Recompute-from-scratch oracle: full LOCAL greedy on the current
  /// graph via the session API over the shared runtime.  A flat run
  /// borrows the graph's CSR, which the graph keeps until its next
  /// mutation: only a recompute that follows apply() rebuilds it.
  std::vector<Colour> recompute() { return recompute(opts_.engine); }
  std::vector<Colour> recompute(local::EngineKind engine);

  /// check_outputs of the incremental matching against the current graph.
  verify::MatchingReport check() const { return verify::check_outputs(g_, outputs_); }

 private:
  void apply_one(const ChurnOp& op);
  void rematch(graph::NodeIndex v);
  void touch(graph::NodeIndex v);

  graph::EdgeColouredGraph g_;
  MatcherOptions opts_;
  local::Runtime runtime_;
  local::ProgramSource source_;  // greedy, shared by every recompute
  std::vector<Colour> outputs_;
  RepairStats stats_;
  // Per-batch distinct-node accounting: a node is "touched" once per
  // batch, however many ops of the batch visit it.  When batch_stamp_
  // wraps, every stamp is zeroed and the count restarts at 1.
  std::vector<std::uint32_t> touch_stamp_;
  std::uint32_t batch_stamp_ = 0;
  std::uint64_t touched_this_batch_ = 0;
};

}  // namespace dmm::dyn
