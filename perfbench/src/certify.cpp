// certify — closed loop, one caller.  One op is one lower-bound verdict,
// of three kinds:
//
//   * raw       — enumerate_views → compatible_pairs → solve at k=4, d=3,
//                 ρ=3: UNSAT, so no 2-round algorithm exists at k=4;
//   * orbit     — the same CSP through enumerate_orbits and the orbit pairs;
//   * adversary — the Theorem 5 adversary: greedy at k=5 (optimistic caps)
//                 must end in a tight pair, and truncated greedy at k=3 and
//                 k=4 with every r < k-1 must end in a certificate that
//                 re-checks.
//
// Every cycle runs each kind once, in an order drawn from the seed.
// Set-up runs one cycle untimed: it warms the library's caches and gives
// the reference counts every later verdict must reproduce exactly.  Each
// verdict is checked after its op's timed interval ends.
//
// Stresses: colsys, nbhd, lower.  Bypasses: graph, local, svc, dyn.
#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/dmm.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace dmm;

// The sizes of the k=4, d=3, ρ=3 catalogue, as pinned by the e17 baseline.
constexpr std::int64_t kViews = 78'732;
constexpr std::int64_t kOrbits = 3'330;
constexpr std::int64_t kPairs = 9'570'312;
constexpr std::uint64_t kOrbitCspNodes = 66'117;

enum class Kind { kRaw, kOrbit, kAdversary };
constexpr std::array<Kind, 3> kKinds = {Kind::kRaw, Kind::kOrbit, Kind::kAdversary};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRaw: return "raw k=4 rho=3";
    case Kind::kOrbit: return "orbit k=4 rho=3";
    case Kind::kAdversary: return "adversary";
  }
  return "";
}

/// One run_adversary call, kept for the check after the op.
struct AdversaryRun {
  int k = 0;
  int r = 0;
  bool greedy = false;
  lower::LowerBoundResult result;
};

/// What a verdict produced; two runs of one verdict must agree exactly.
struct Outcome {
  bool satisfiable = false;
  std::int64_t views = 0;
  std::int64_t orbits = 0;
  std::int64_t pairs = 0;
  std::uint64_t csp_nodes = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t memo_hits = 0;
  int max_template_nodes = 0;
  std::vector<AdversaryRun> runs;

  bool same_counts(const Outcome& o) const {
    return satisfiable == o.satisfiable && views == o.views && orbits == o.orbits &&
           pairs == o.pairs && csp_nodes == o.csp_nodes && evaluations == o.evaluations &&
           memo_hits == o.memo_hits && max_template_nodes == o.max_template_nodes;
  }
};

Outcome raw_pipeline(Tracer* tracer, std::int64_t op) {
  Outcome out;
  std::optional<nbhd::ViewCatalogue> cat;
  std::optional<std::vector<nbhd::CompatiblePair>> pairs;
  nbhd::CspResult csp;
  {
    Span span(tracer, "nbhd.enumerate_raw", op);
    cat = nbhd::enumerate_views(4, 3, 3);
  }
  {
    Span span(tracer, "nbhd.pairs_raw", op);
    pairs = nbhd::compatible_pairs(*cat);
  }
  {
    Span span(tracer, "nbhd.solve_raw", op);
    csp = nbhd::solve(*cat, *pairs);
  }
  out.views = cat->size();
  out.pairs = static_cast<std::int64_t>(pairs->size());
  out.csp_nodes = csp.nodes_explored;
  out.satisfiable = csp.satisfiable;
  // Each structure is released under the layer that built it.
  {
    Span span(tracer, "nbhd.pairs_raw", op);
    pairs.reset();
  }
  {
    Span span(tracer, "nbhd.enumerate_raw", op);
    cat.reset();
  }
  return out;
}

Outcome orbit_pipeline(Tracer* tracer, std::int64_t op) {
  Outcome out;
  std::optional<nbhd::OrbitCatalogue> cat;
  std::optional<std::vector<nbhd::CompatiblePair>> pairs;
  nbhd::CspResult csp;
  {
    Span span(tracer, "nbhd.enumerate_orbit", op);
    cat = nbhd::enumerate_orbits(4, 3, 3);
  }
  {
    Span span(tracer, "nbhd.pairs_orbit", op);
    pairs = nbhd::compatible_pairs(*cat);
  }
  {
    Span span(tracer, "nbhd.solve_orbit", op);
    csp = nbhd::solve(*cat, *pairs);
  }
  out.views = cat->view_count();
  out.orbits = cat->orbit_count();
  out.pairs = static_cast<std::int64_t>(pairs->size());
  out.csp_nodes = csp.nodes_explored;
  out.satisfiable = csp.satisfiable;
  {
    Span span(tracer, "nbhd.pairs_orbit", op);
    pairs.reset();
  }
  {
    Span span(tracer, "nbhd.enumerate_orbit", op);
    cat.reset();
  }
  return out;
}

void adversary_run(int k, int r, bool greedy, Outcome& out, Tracer* tracer, std::int64_t op) {
  AdversaryRun run{k, r, greedy, {}};
  {
    Span span(tracer, "lower.adversary", op);
    const algo::GreedyLocal full(k);
    const algo::TruncatedGreedy truncated(k, r);
    lower::AdversaryOptions options;
    options.optimistic = greedy;
    run.result = lower::run_adversary(
        k, greedy ? static_cast<const local::LocalAlgorithm&>(full) : truncated, options);
  }
  out.evaluations += run.result.stats.evaluations;
  out.memo_hits += run.result.stats.memo_hits;
  out.max_template_nodes = std::max(out.max_template_nodes, run.result.stats.max_template_nodes);
  out.runs.push_back(std::move(run));
}

Outcome adversary_suite(Tracer* tracer, std::int64_t op) {
  Outcome out;
  adversary_run(5, 4, /*greedy=*/true, out, tracer, op);
  for (int k = 3; k <= 4; ++k) {
    for (int r = 0; r < k - 1; ++r) adversary_run(k, r, /*greedy=*/false, out, tracer, op);
  }
  return out;
}

Outcome run_verdict(Kind kind, Tracer* tracer, std::int64_t op) {
  switch (kind) {
    case Kind::kRaw: return raw_pipeline(tracer, op);
    case Kind::kOrbit: return orbit_pipeline(tracer, op);
    case Kind::kAdversary: return adversary_suite(tracer, op);
  }
  return {};
}

/// Checks a verdict: UNSAT over the pinned catalogue sizes, a tight pair
/// for greedy, a certificate that re-checks for a truncated algorithm.
/// Returns "" when it holds.  Releases the adversary results.
std::string check(Kind kind, Outcome& out, Tracer* tracer, std::int64_t op) {
  Span span(tracer, "verify.check", op);
  if (kind == Kind::kRaw) {
    const bool holds = !out.satisfiable && out.views == kViews && out.pairs == kPairs;
    return holds ? "" : "expected UNSAT over 78732 views and 9570312 pairs";
  }
  if (kind == Kind::kOrbit) {
    const bool holds = !out.satisfiable && out.views == kViews && out.orbits == kOrbits &&
                       out.pairs == kPairs && out.csp_nodes == kOrbitCspNodes;
    return holds ? "" : "expected UNSAT over 3330 orbits with 66117 search nodes";
  }
  std::string error;
  for (const AdversaryRun& run : out.runs) {
    bool holds = false;
    if (run.greedy) {
      const auto* pair = std::get_if<lower::TightPair>(&run.result.outcome);
      holds = pair != nullptr &&
              colsys::ColourSystem::equal_to_radius(pair->u.tree(), pair->v.tree(), pair->d) &&
              pair->out_u != local::kUnmatched && pair->out_v == local::kUnmatched;
    } else {
      const auto* cert = std::get_if<lower::Certificate>(&run.result.outcome);
      const algo::TruncatedGreedy truncated(run.k, run.r);
      lower::Evaluator eval(truncated);
      holds = cert != nullptr && lower::certificate_holds(*cert, eval);
    }
    if (!holds && error.empty()) error = "unexpected verdict: " + run.result.summary();
  }
  out.runs.clear();
  return error;
}

class Certify final : public Workload {
 public:
  int setup_reps() const override { return 3; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    cycle_ = 0;
    Span span(tracer, "setup.reference");
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      reference_[i] = run_verdict(kKinds[i], nullptr, -1);
      const std::string error = check(kKinds[i], reference_[i], nullptr, -1);
      if (!error.empty()) {
        throw std::runtime_error(std::string("set-up verdict failed: ") + kind_name(kKinds[i]) +
                                 ": " + error);
      }
    }
  }

  Phase run(double seconds, Tracer* tracer) override {
    Phase phase;
    const Clock::time_point start = Clock::now();
    std::array<std::size_t, kKinds.size()> order = {0, 1, 2};
    do {
      Rng rng(mix_seed(seed_, 100 + cycle_++));
      std::shuffle(order.begin(), order.end(), rng.engine());
      const double busy_before = phase.busy_ns;
      for (const std::size_t i : order) {
        const Clock::time_point op_start = Clock::now();
        Outcome out;
        std::string error;
        try {
          out = run_verdict(kKinds[i], tracer, op_);
        } catch (const std::exception& e) {
          error = e.what();
        }
        const double ns = ns_between(op_start, Clock::now());
        phase.busy_ns += ns;
        ++phase.attempted;
        ++op_;
        if (error.empty()) error = check(kKinds[i], out, tracer, op_ - 1);
        if (!error.empty()) {
          fail(phase, std::string(kind_name(kKinds[i])) + ": " + error);
          continue;
        }
        phase.latency_ms.push_back(ns / 1e6);
        if (!out.same_counts(reference_[i])) {
          fail(phase, std::string(kind_name(kKinds[i])) + ": counts differ from set-up");
        }
        if (tracer != nullptr) {
          phase.counters["nbhd.views"] += static_cast<double>(out.views);
          phase.counters["nbhd.orbits"] += static_cast<double>(out.orbits);
          phase.counters["nbhd.pairs"] += static_cast<double>(out.pairs);
          phase.counters["nbhd.csp_nodes"] += static_cast<double>(out.csp_nodes);
          phase.counters["lower.evaluations"] += static_cast<double>(out.evaluations);
          phase.counters["lower.memo_hits"] += static_cast<double>(out.memo_hits);
          double& max_nodes = phase.counters["lower.max_template_nodes"];
          max_nodes = std::max(max_nodes, static_cast<double>(out.max_template_nodes));
        }
      }
      phase.cycle_ops_per_s.push_back(order.size() * 1e9 / (phase.busy_ns - busy_before));
    } while (ns_between(start, Clock::now()) < seconds * 1e9);
    phase.wall_ns = ns_between(start, Clock::now());
    return phase;
  }

 private:
  std::uint64_t seed_ = 0;
  std::array<Outcome, kKinds.size()> reference_;
  std::uint64_t cycle_ = 0;
  std::int64_t op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_certify() { return std::make_unique<Certify>(); }

}  // namespace perfbench
