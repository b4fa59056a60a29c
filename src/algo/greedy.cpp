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

bool GreedyProgram::init(const std::vector<Colour>& incident) {
  // Map-engine path: the caller's vector is a temporary, so take a copy.
  owned_ = incident;
  incident_ = owned_.data();
  degree_ = static_cast<int>(owned_.size());
  return start();
}

bool GreedyProgram::init_flat(const Colour* incident, int degree) {
  // Flat-engine path: the CSR colour row outlives the run — borrow it.
  incident_ = incident;
  degree_ = degree;
  return start();
}

bool GreedyProgram::start() {
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

std::map<Colour, local::Message> GreedyProgram::send(int round) {
  (void)round;
  std::map<Colour, local::Message> out;
  for (int i = 0; i < degree_; ++i) out[incident_[i]] = matched_ ? "M" : "F";
  return out;
}

bool GreedyProgram::receive(int round, const std::map<Colour, local::Message>& inbox) {
  // Allocated here, not in init: the flat fast path below never needs it.
  if (static_cast<int>(neighbour_matched_.size()) != degree_) {
    neighbour_matched_.assign(static_cast<std::size_t>(degree_), 0);
  }
  // After the exchange in round t we know the neighbours' status at the end
  // of step t, which decides step t+1 (edges of colour t+1).
  for (int i = 0; i < degree_; ++i) {
    const auto it = inbox.find(incident_[i]);
    if (it == inbox.end()) continue;
    const local::Message& m = it->second;
    // A halted neighbour announces its output; a matched announcement or an
    // explicit "M" both mean "taken".  An announced ⊥ means permanently free,
    // but a ⊥ neighbour can never be our colour-(t+1) partner anyway (it
    // halted only after its last chance passed), so treat it as free.
    const bool neighbour_matched =
        m == "M" || (!m.empty() && m.front() == local::kHaltedPrefix && m != "!0");
    neighbour_matched_[static_cast<std::size_t>(i)] = neighbour_matched ? 1 : 0;
  }
  const Colour next = static_cast<Colour>(round + 1);
  if (!matched_) {
    for (int i = 0; i < degree_; ++i) {
      if (incident_[i] == next && !neighbour_matched_[static_cast<std::size_t>(i)]) {
        matched_ = true;
        output_ = next;
      }
    }
  }
  return try_finish(/*completed_step=*/round + 1);
}

void GreedyProgram::send_flat(int round, local::FlatOutbox& out) {
  (void)round;
  // Same one-byte status per incident colour as send(), without the map.
  out.broadcast(matched_ ? std::string_view("M") : std::string_view("F"));
}

bool GreedyProgram::receive_flat(int round, const local::FlatInbox& in) {
  // Only the colour-(round+1) port can change our fate, and the status
  // decoding matches receive() byte for byte; the per-port status array is
  // not needed because every entry is refreshed every round anyway.
  const Colour next = static_cast<Colour>(round + 1);
  if (!matched_) {
    for (int i = 0; i < in.ports(); ++i) {
      if (in.colour(i) != next) continue;
      const std::string_view m = in.at(i);
      const bool neighbour_matched =
          m == "M" || (!m.empty() && m.front() == local::kHaltedPrefix && m != "!0");
      if (!neighbour_matched) {
        matched_ = true;
        output_ = next;
      }
    }
  }
  return try_finish(/*completed_step=*/round + 1);
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
