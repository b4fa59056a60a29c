// The full-information protocol (§2.3): a NodeProgram realisation of any
// LocalAlgorithm.
//
// Every round each node forwards everything it knows — its current view,
// minus the branch the recipient contributed — and grafts what it hears
// onto a fresh root.  After r rounds of this the node holds exactly its
// radius-(r+1) view (v̄V)[r+1], i.e. the same colour system view_ball
// extracts centrally, so evaluating the LocalAlgorithm on it reproduces
// run_views on any engine.
//
// This is the construction that turns the paper's functional definition of
// a distributed algorithm into an operational one, and it is the library's
// canonical source of *unbounded* messages: the serialised views grow with
// the round number, which exercises the flat engine's spill arena (the
// greedy fast path never leaves the inline slots).
#pragma once

#include <memory>

#include "colsys/colour_system.hpp"
#include "local/engine.hpp"

namespace dmm::local {

class FloodingProgram final : public NodeProgram {
 public:
  /// `k` is the (globally known) palette size; the algorithm's running time
  /// fixes the halting round.
  FloodingProgram(std::shared_ptr<const LocalAlgorithm> algorithm, int k);

  bool init(std::span<const Colour> incident) override;
  void send(int round, Outbox& out) override;
  bool receive(int round, const Inbox& in) override;
  Colour output() const override { return output_; }
  // Checkpoint hooks: the dynamic state is exactly the accumulated view
  // (the text format of io/serialize.hpp); everything else is re-derived
  // by init or fixed at construction.
  void save_state(std::string& out) const override;
  void load_state(std::string_view in) override;

 private:
  std::shared_ptr<const LocalAlgorithm> algorithm_;
  int k_;
  int running_time_ = 0;
  colsys::ColourSystem view_;
  Colour output_ = kUnmatched;
};

/// One FloodingProgram per node, all simulating `algorithm`.
ProgramSource flooding_program_factory(std::shared_ptr<const LocalAlgorithm> algorithm,
                                       int k);

}  // namespace dmm::local
