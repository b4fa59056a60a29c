#include "dyn/dynamic_matcher.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "algo/greedy.hpp"
#include "local/flat_engine.hpp"

namespace dmm::dyn {

DynamicMatcher::DynamicMatcher(graph::EdgeColouredGraph g, const MatcherOptions& options)
    : g_(std::move(g)),
      opts_(options),
      runtime_(options.threads),
      source_(algo::greedy_program_factory()),
      touch_stamp_(static_cast<std::size_t>(g_.node_count()), 0) {
  outputs_ = recompute(opts_.engine);
}

std::vector<Colour> DynamicMatcher::recompute(local::EngineKind engine) {
  local::RunOptions options;
  options.max_rounds = g_.k() + 1;
  // runtime_ (built with opts_.threads) sets a flat session's workers.
  auto session = local::make_session(engine, g_, source_, options, {}, &runtime_);
  while (!session->done()) session->step();
  return session->result().outputs;
}

void DynamicMatcher::touch(graph::NodeIndex v) {
  auto& stamp = touch_stamp_[static_cast<std::size_t>(v)];
  if (stamp != batch_stamp_) {
    stamp = batch_stamp_;
    ++touched_this_batch_;
  }
}

void DynamicMatcher::rematch(graph::NodeIndex v) {
  // Greedy repair: match along the lowest colour whose neighbour is also
  // free — the same preference order the one-shot greedy algorithm uses.
  // Adjacency order is not colour order, so first find that colour, then
  // touch every neighbour a colour-ascending scan would have read: those
  // at or below it (all of them when no neighbour is free).
  const std::span<const graph::HalfEdge> halves = g_.half_edges(v);
  const graph::HalfEdge* best = nullptr;
  for (const graph::HalfEdge& h : halves) {
    if (outputs_[static_cast<std::size_t>(h.to)] == local::kUnmatched &&
        (best == nullptr || h.colour < best->colour)) {
      best = &h;
    }
  }
  for (const graph::HalfEdge& h : halves) {
    if (best == nullptr || h.colour <= best->colour) touch(h.to);
  }
  if (best == nullptr) return;
  outputs_[static_cast<std::size_t>(v)] = best->colour;
  outputs_[static_cast<std::size_t>(best->to)] = best->colour;
  ++stats_.repairs;
}

void DynamicMatcher::apply_one(const ChurnOp& op) {
  touch(op.u);
  touch(op.v);
  if (op.kind == ChurnOp::Kind::kInsert) {
    g_.add_edge(op.u, op.v, op.colour);  // throws on an improper insert
    ++stats_.inserts;
    if (outputs_[static_cast<std::size_t>(op.u)] == local::kUnmatched &&
        outputs_[static_cast<std::size_t>(op.v)] == local::kUnmatched) {
      outputs_[static_cast<std::size_t>(op.u)] = op.colour;
      outputs_[static_cast<std::size_t>(op.v)] = op.colour;
      ++stats_.repairs;
    }
    return;
  }
  const auto live = g_.edge_colour(op.u, op.v);
  if (!live) throw std::invalid_argument("DynamicMatcher: delete of a non-edge");
  if (op.colour != gk::kNoColour && op.colour != *live) {
    throw std::invalid_argument("DynamicMatcher: delete names the wrong colour");
  }
  g_.remove_edge(op.u, op.v);
  ++stats_.deletes;
  const bool was_matched = outputs_[static_cast<std::size_t>(op.u)] == *live &&
                           outputs_[static_cast<std::size_t>(op.v)] == *live;
  if (!was_matched) return;  // unmatched edge: the matching never referenced it
  outputs_[static_cast<std::size_t>(op.u)] = local::kUnmatched;
  outputs_[static_cast<std::size_t>(op.v)] = local::kUnmatched;
  rematch(op.u);
  rematch(op.v);
}

void DynamicMatcher::apply(const ChurnBatch& batch) {
  // A wrapped stamp would match every never-touched node's 0; start over.
  if (++batch_stamp_ == 0) {
    std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0u);
    batch_stamp_ = 1;
  }
  touched_this_batch_ = 0;
  for (const ChurnOp& op : batch.ops) apply_one(op);
  ++stats_.batches;
  stats_.touched_nodes += touched_this_batch_;
  const auto n = static_cast<std::uint64_t>(g_.node_count());
  stats_.recompute_avoided += n - touched_this_batch_;
}

void DynamicMatcher::apply(const ChurnPlan& plan) {
  plan.require_applies(g_);
  for (const ChurnBatch& batch : plan.batches()) apply(batch);
}

}  // namespace dmm::dyn
