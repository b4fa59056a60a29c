// The executable adversary of Theorems 2 and 5 (and Lemma 4 for k ≤ 2).
//
// Given any algorithm A (a black box behind the LocalAlgorithm interface),
// run_adversary(k, A) mechanically performs the paper's induction and ends
// in one of three ways:
//
//  * TightPair — two d-regular k-colour systems U, V (d = k-1) with
//    U[d] = V[d], A(U, e) matched, A(V, e) = ⊥.  Since the radius-d views
//    at e coincide, *no* algorithm with running time < d can produce these
//    outputs: the pair is a machine-checked witness that A's answers
//    require ≥ k-1 rounds.  This is what happens when A is correct (e.g.
//    the greedy algorithm).
//
//  * Certificate — a concrete finite witness (re-checkable via
//    certificate_holds) that A violates (M1)/(M2)/(M3) on the realisation
//    of a specific template: A is simply not a maximal-matching algorithm.
//    This is what happens to every "too fast" algorithm, exactly as the
//    theorem's universal quantifier demands.
//
//  * Inconclusive — the depth budget ran out before either of the above;
//    impossible for a correct algorithm (parity argument), and reported
//    honestly instead of guessing for broken ones.
//
// Lemma 4 (k = 2, 0-round algorithms) uses the paper's explicit
// three-instance argument and returns the violated instance as a plain
// finite graph.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "lower/critical_pair.hpp"
#include "verify/matching.hpp"

namespace dmm::lower {

struct TightPair {
  Template u;  // S_d: perfectly matched side
  Template v;  // T_d: root unmatched
  Colour out_u = gk::kNoColour;  // A(U, e) ∈ C(U, e)
  Colour out_v = gk::kNoColour;  // A(V, e) = ⊥
  int d = 0;
};

struct AdversaryStats {
  std::uint64_t evaluations = 0;  // distinct views handed to A
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_entries = 0;  // stored answers (distinct views)
  std::size_t memo_bytes = 0;      // approximate resident size of the memo
  int max_template_nodes = 0;
  std::vector<StepTrace> steps;
};

struct LowerBoundResult {
  int k = 0;
  std::string algorithm;
  std::variant<TightPair, Certificate, Inconclusive> outcome =
      Inconclusive{"not yet run"};
  AdversaryStats stats;

  bool tight() const noexcept { return std::holds_alternative<TightPair>(outcome); }
  bool refuted() const noexcept { return std::holds_alternative<Certificate>(outcome); }
  std::string summary() const;
};

struct AdversaryOptions {
  /// Cache algorithm answers by canonical view (ablation: E15).
  bool memoise = true;
  /// Try optimistic (small) Lemma 12 scan caps first, growing on demand.
  /// The conservative budget assumes the witness can sit at norm r+2; in
  /// practice it sits at norm 1 (E15b), and the optimistic schedule makes
  /// k = 5 against the full greedy algorithm feasible.  Outcomes never
  /// change — only the materialised tree sizes do.
  bool optimistic = false;
  /// Safety valve: skip any attempt whose estimated largest template would
  /// exceed this many nodes.
  double max_template_nodes = 5e6;
};

/// Runs the §3 construction.  Requires k ≥ 3; see run_lemma4 for k = 2.
LowerBoundResult run_adversary(int k, const local::LocalAlgorithm& algorithm,
                               const AdversaryOptions& options = {});

/// Lemma 4: for k = 2 and a 0-round algorithm, one of the instances
/// T = {e,1}, U = {e,2}, V = {e,1,2} is violated.
struct Lemma4Result {
  bool contradiction_found = false;
  graph::EdgeColouredGraph instance;  // the violated instance (if found)
  std::vector<Colour> outputs;
  verify::MatchingReport report;
  std::string summary;
};
Lemma4Result run_lemma4(const local::LocalAlgorithm& algorithm);

/// Bounded hunt for a concrete (M1)/(M2)/(M3)/Lemma-9 breach on the
/// realisation of a template; probes all nodes with norm ≤ norm_limit.
std::optional<Certificate> hunt_violation(const Template& tmpl, Evaluator& eval, int norm_limit);

/// Resumable-sweep control for hunt_violation: start the sweep at index
/// `start_index` of nodes_up_to(norm_limit) and call `sink(next_index)`
/// after every `checkpoint_every` probed nodes while the sweep is still
/// unfinished — the natural place to save_hunt_checkpoint.  Because the
/// evaluator's answers are pure and memoised, a resumed hunt probes the
/// remaining nodes with the exact evaluation history of the uninterrupted
/// run: same certificate (or none), same counters.  The sink only reports
/// indices inside the sweep, so hunt_violation throws
/// std::invalid_argument for a nonzero `start_index` at or past its end
/// (a cursor that would skip the whole hunt).
struct HuntControl {
  std::size_t start_index = 0;
  std::size_t checkpoint_every = 0;
  std::function<void(std::size_t next_index)> sink;
};

std::optional<Certificate> hunt_violation(const Template& tmpl, Evaluator& eval,
                                          int norm_limit, const HuntControl& control);

/// A persisted hunt position: the template under interrogation, the norm
/// limit, and the index of the next node to probe.  Serialised as a "HUNT"
/// frame followed by the evaluator's "EVAL" frame on the same stream
/// (io/serialize.hpp), so corruption anywhere is detected on load.
struct HuntCheckpoint {
  Template tmpl;
  int norm_limit = 0;
  std::size_t next_index = 0;
};

void save_hunt_checkpoint(std::ostream& out, const Template& tmpl, int norm_limit,
                          std::size_t next_index, const Evaluator& eval);

/// Reads the hunt frame and loads the evaluator memo into `eval` (which
/// must be freshly constructed for the same algorithm — see
/// Evaluator::load).  A norm limit outside int's range is refused with
/// std::runtime_error.
HuntCheckpoint load_hunt_checkpoint(std::istream& in, Evaluator& eval);

}  // namespace dmm::lower
