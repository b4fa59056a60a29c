#include "local/flooding.hpp"

#include <deque>
#include <utility>

#include "io/serialize.hpp"

namespace dmm::local {

namespace {

/// Copies `src` (rooted at its root) below `dst_parent`, preserving child
/// colours; the source root itself is identified with dst_parent.
void graft_below(const colsys::ColourSystem& src, colsys::ColourSystem& dst,
                 colsys::NodeId dst_parent) {
  std::deque<std::pair<colsys::NodeId, colsys::NodeId>> queue{{src.root(), dst_parent}};
  while (!queue.empty()) {
    const auto [from, to] = queue.front();
    queue.pop_front();
    for (int c = 1; c <= src.k(); ++c) {
      const colsys::NodeId child = src.child(from, c);
      if (child != colsys::kNullNode) queue.push_back({child, dst.add_child(to, c)});
    }
  }
}

}  // namespace

FloodingProgram::FloodingProgram(std::shared_ptr<const LocalAlgorithm> algorithm, int k)
    : algorithm_(std::move(algorithm)), k_(k), view_(k, /*valid_radius=*/1) {
  running_time_ = algorithm_->running_time();
}

bool FloodingProgram::init(std::span<const Colour> incident) {
  // The radius-1 view: the root plus one child per incident colour.
  view_ = colsys::ColourSystem(k_, /*valid_radius=*/1);
  for (Colour c : incident) view_.add_child(view_.root(), c);
  if (running_time_ == 0) {
    output_ = algorithm_->evaluate(view_);
    return true;
  }
  return false;
}

void FloodingProgram::send(int round, Outbox& out) {
  (void)round;
  // The neighbour across port p gets everything except the branch it
  // contributed itself — walks towards it must not backtrack.
  for (int port = 0; port < out.ports(); ++port) {
    out.set(port, io::write_system(view_.pruned(out.colour(port))));
  }
}

bool FloodingProgram::receive(int round, const Inbox& in) {
  colsys::ColourSystem next(k_, view_.valid_radius() + 1);
  for (int port = 0; port < in.ports(); ++port) {
    const colsys::NodeId branch = next.add_child(next.root(), in.colour(port));
    const std::string_view m = in.at(port);
    // Under faults a neighbour may contribute nothing this round (it is
    // down, or its message was dropped), or only its halted announcement;
    // either way the branch stays a bare stub — the view keeps growing
    // with that subtree missing (recovery semantics: docs/faults.md).
    // Fault-free runs never take this branch: flooding nodes all halt in
    // the same round, so every port carries a serialised view.
    if (m.empty() || m.front() == kHaltedPrefix) continue;
    graft_below(io::read_system(m), next, branch);
  }
  view_ = std::move(next);
  // `>=`, not `==`: a node that was down at round running_time_ halts at
  // its first completed round after restarting, evaluating on the (partial)
  // view it actually accumulated.  Equivalent fault-free.
  if (round >= running_time_) {
    output_ = algorithm_->evaluate(view_);
    return true;
  }
  return false;
}

void FloodingProgram::save_state(std::string& out) const {
  out.append(io::write_system(view_));
}

void FloodingProgram::load_state(std::string_view in) {
  view_ = io::read_system(in);
}

ProgramSource flooding_program_factory(std::shared_ptr<const LocalAlgorithm> algorithm,
                                       int k) {
  return [algorithm = std::move(algorithm), k] { return FloodingProgram(algorithm, k); };
}

}  // namespace dmm::local
