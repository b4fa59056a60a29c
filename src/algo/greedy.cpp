#include "algo/greedy.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "local/program_pool.hpp"

namespace dmm::algo {

std::vector<Colour> greedy_outputs(const graph::EdgeColouredGraph& g) {
  std::vector<Colour> out(static_cast<std::size_t>(g.node_count()), local::kUnmatched);
  for (Colour c = 1; c <= g.k(); ++c) {
    for (const graph::Edge& e : g.edges()) {
      if (e.colour != c) continue;
      if (out[static_cast<std::size_t>(e.u)] == local::kUnmatched &&
          out[static_cast<std::size_t>(e.v)] == local::kUnmatched) {
        out[static_cast<std::size_t>(e.u)] = c;
        out[static_cast<std::size_t>(e.v)] = c;
      }
    }
  }
  return out;
}

std::vector<Colour> greedy_outputs(const colsys::ColourSystem& system) {
  std::vector<Colour> out(static_cast<std::size_t>(system.size()), local::kUnmatched);
  for (Colour c = 1; c <= system.k(); ++c) {
    for (colsys::NodeId v = 1; v < system.size(); ++v) {
      if (system.parent_colour(v) != c) continue;
      const colsys::NodeId p = system.parent(v);
      if (out[static_cast<std::size_t>(v)] == local::kUnmatched &&
          out[static_cast<std::size_t>(p)] == local::kUnmatched) {
        out[static_cast<std::size_t>(v)] = c;
        out[static_cast<std::size_t>(p)] = c;
      }
    }
  }
  return out;
}

bool GreedyProgram::init(std::span<const Colour> incident) {
  // The engine's colour row outlives the run — borrow it.
  incident_ = incident.data();
  degree_ = static_cast<int>(incident.size());
  // Step 1 needs no communication: an incident colour-1 edge matches both
  // of its endpoints immediately (a properly coloured graph has at most one
  // such edge per node, and its other endpoint reasons identically).
  if (degree_ > 0 && incident_[0] == 1) {
    matched_ = true;
    output_ = 1;
  }
  return try_finish(/*completed_step=*/1);
}

bool GreedyProgram::try_finish(int completed_step) {
  if (matched_) return true;
  // An unmatched node may stop once every incident colour has been decided.
  const Colour largest = degree_ == 0 ? 0 : incident_[degree_ - 1];
  if (completed_step >= largest) {
    output_ = local::kUnmatched;
    return true;
  }
  return false;
}

void GreedyProgram::send(int round, local::Outbox& out) {
  (void)round;
  out.broadcast(matched_ ? std::string_view("M") : std::string_view("F"));
}

bool GreedyProgram::receive(int round, const local::Inbox& in) {
  // After the exchange in round t we know the neighbours' status at the end
  // of step t, which decides step t+1 (edges of colour t+1) — and only the
  // colour-(t+1) neighbour can be our partner in that step.  The cursor
  // points past every decided colour (the loop moves it only after a
  // resume, which starts it at 0), so that port is the one it names.
  const int next = round + 1;
  while (cursor_ < degree_ && incident_[cursor_] < next) ++cursor_;
  if (cursor_ < degree_ && incident_[cursor_] == next) {
    if (!matched_) {
      const std::string_view m = in.at(cursor_);
      // A halted neighbour announces its output; a matched announcement or
      // an explicit "M" both mean "taken".  An announced ⊥ means
      // permanently free, but a ⊥ neighbour can never be our
      // colour-(t+1) partner anyway (it halted only after its last chance
      // passed), so treat it as free.
      const bool neighbour_matched =
          m == "M" || (!m.empty() && m.front() == local::kHaltedPrefix && m != "!0");
      if (!neighbour_matched) {
        matched_ = true;
        output_ = static_cast<Colour>(next);
      }
    }
    ++cursor_;
  }
  return try_finish(/*completed_step=*/next);
}

int GreedyProgram::next_active_round(int round) const noexcept {
  // Colours up to round + 1 are decided.  Until the round c - 1 that reads
  // the next incident colour c, an unmatched node sends "F" and its
  // receive reads nothing.  After receive(round) the cursor already points
  // at c, so the scan does not move.
  int port = cursor_;
  while (port < degree_ && incident_[port] <= round + 1) ++port;
  return port < degree_ ? incident_[port] - 1 : round + 1;
}

void GreedyProgram::save_state(std::string& out) const {
  out.push_back(matched_ ? '\1' : '\0');
  out.push_back(static_cast<char>(output_));
}

void GreedyProgram::load_state(std::string_view in) {
  if (in.size() != 2 || static_cast<unsigned char>(in[0]) > 1) {
    throw std::invalid_argument("GreedyProgram::load_state: malformed state blob");
  }
  // init ran first, so the incident row is known: a run only ever leaves
  // an unmatched node at ⊥ and a matched one on an incident colour.
  const bool matched = in[0] != '\0';
  const auto output = static_cast<Colour>(static_cast<unsigned char>(in[1]));
  const Colour* end = incident_ + degree_;
  if (matched ? std::find(incident_, end, output) == end : output != local::kUnmatched) {
    throw std::invalid_argument("GreedyProgram::load_state: state no run can produce");
  }
  matched_ = matched;
  output_ = output;
}

void GreedyProgramFactory::make_programs(std::size_t count, local::ProgramPool& pool) const {
  // The tuned batched path: all n programs in one contiguous arena block,
  // so the engines' per-node walk is a sequential sweep.
  pool.emplace_batch<GreedyProgram>(count);
}

local::NodeProgram* GreedyProgramFactory::make_one(local::ProgramPool& pool) const {
  return pool.emplace<GreedyProgram>();
}

local::ProgramSource greedy_program_factory() {
  return local::ProgramSource(std::make_shared<const GreedyProgramFactory>());
}

Colour GreedyLocal::evaluate(const colsys::ColourSystem& view) const {
  // Simulate greedy on the view; by the radius argument of §1.2 the fate of
  // the root after all k steps depends only on the radius-k ball, which is
  // exactly the view we received.
  const std::vector<Colour> outs = greedy_outputs(view);
  return outs[static_cast<std::size_t>(colsys::ColourSystem::root())];
}

}  // namespace dmm::algo
