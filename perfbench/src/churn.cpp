// churn — closed loop, one caller.  One op is one
// dyn::DynamicMatcher::apply of a 16-op batch (half inserts, half
// deletes).  Each cycle applies three batches to a matcher on a random
// instance and one to a matcher on a hub-cluster instance.  Each
// instance's seeded ChurnPlan is replayed forward and then inverted (every
// op undone, in reverse order), which returns the graph to its starting
// edge set, so the schedule can cycle for as long as the run lasts.
// check() runs after every batch, outside the timed op; a recompute()
// oracle run must also be maximal at the end of the phase.
//
// Stresses: graph mutation and incremental repair.  The engine runs only
// in set-up (seeding each matcher) and in the final oracle.  Bypasses:
// svc, nbhd, lower.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/dmm.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace dmm;

/// The inverse of a valid plan: undoes every op, last first.
dyn::ChurnPlan inverse(const dyn::ChurnPlan& plan) {
  std::vector<dyn::ChurnBatch> batches;
  for (auto b = plan.batches().rbegin(); b != plan.batches().rend(); ++b) {
    dyn::ChurnBatch undo;
    for (auto op = b->ops.rbegin(); op != b->ops.rend(); ++op) {
      dyn::ChurnOp inv = *op;
      inv.kind = op->kind == dyn::ChurnOp::Kind::kInsert ? dyn::ChurnOp::Kind::kDelete
                                                         : dyn::ChurnOp::Kind::kInsert;
      undo.ops.push_back(inv);
    }
    batches.push_back(std::move(undo));
  }
  return dyn::ChurnPlan(std::move(batches));
}

struct Instance {
  std::string name;
  std::vector<dyn::ChurnBatch> schedule;  // forward plan, then its inverse
  std::unique_ptr<dyn::DynamicMatcher> matcher;
  std::size_t next = 0;
};

class Churn final : public Workload {
 public:
  int setup_reps() const override { return 3; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Instance& inst = instances_[i];
      inst = Instance{};
      graph::EdgeColouredGraph g(0, 1);
      {
        Span span(tracer, "graph.generate");
        if (i == 0) {
          inst.name = "random";
          Rng rng(mix_seed(seed, 1));
          g = graph::random_coloured_graph(kRandomNodes, 8, 0.7, rng);
        } else {
          inst.name = "hub";
          g = graph::hub_cluster_graph(kHubs, kHubDegree, 1);
        }
      }
      {
        Span span(tracer, "dyn.plan");
        dyn::ChurnSpec spec;
        spec.batches = kPlanBatches;
        spec.ops_per_batch = 16;
        spec.insert_fraction = 0.5;
        spec.seed = mix_seed(seed, 10 + i);
        const dyn::ChurnPlan forward = dyn::ChurnPlan::random(g, spec);
        const dyn::ChurnPlan backward = inverse(forward);
        inst.schedule = forward.batches();
        inst.schedule.insert(inst.schedule.end(), backward.batches().begin(),
                             backward.batches().end());
        // One full cycle must apply to the starting graph.
        dyn::ChurnPlan(inst.schedule).require_applies(g);
      }
      Span span(tracer, "dyn.seed");
      dyn::MatcherOptions options;
      options.engine = local::EngineKind::kFlat;
      options.threads = 1;
      inst.matcher = std::make_unique<dyn::DynamicMatcher>(std::move(g), options);
    }
  }

  Phase run(double seconds, Tracer* tracer) override {
    Phase phase;
    std::array<dyn::RepairStats, 2> before;
    for (std::size_t i = 0; i < before.size(); ++i) before[i] = instances_[i].matcher->stats();
    double apply_ns = 0.0;
    std::uint64_t churn_ops = 0;
    const Clock::time_point start = Clock::now();
    do {
      const double busy_before = phase.busy_ns;
      for (const std::size_t which : kCycle) {
        Instance& inst = instances_[which];
        const dyn::ChurnBatch& batch = inst.schedule[inst.next];
        inst.next = (inst.next + 1) % inst.schedule.size();
        const Clock::time_point op_start = Clock::now();
        bool threw = false;
        try {
          Span span(tracer, "dyn.apply", op_);
          inst.matcher->apply(batch);
        } catch (const std::exception& e) {
          threw = true;
          fail(phase, inst.name + " apply threw: " + e.what());
        }
        const double ns = ns_between(op_start, Clock::now());
        phase.busy_ns += ns;
        apply_ns += ns;
        churn_ops += batch.ops.size();
        ++phase.attempted;
        ++op_;
        if (threw) continue;
        phase.latency_ms.push_back(ns / 1e6);
        Span check(tracer, "verify.check", op_ - 1);
        const verify::MatchingReport report = inst.matcher->check();
        if (!report.ok()) fail(phase, inst.name + " matching broken: " + report.describe());
      }
      phase.cycle_ops_per_s.push_back(kCycle.size() * 1e9 / (phase.busy_ns - busy_before));
    } while (ns_between(start, Clock::now()) < seconds * 1e9);
    // The from-scratch oracle must also find a maximal matching on the
    // graph the churn produced.
    for (Instance& inst : instances_) {
      Span span(tracer, "dyn.recompute", op_);
      const std::vector<gk::Colour> oracle = inst.matcher->recompute();
      if (!verify::check_outputs(inst.matcher->graph(), oracle).ok()) {
        fail(phase, inst.name + " recompute oracle is not a maximal matching");
      }
    }
    phase.wall_ns = ns_between(start, Clock::now());
    if (tracer != nullptr) {
      for (std::size_t i = 0; i < before.size(); ++i) {
        const dyn::RepairStats& now = instances_[i].matcher->stats();
        phase.counters["dyn.repairs"] += static_cast<double>(now.repairs - before[i].repairs);
        phase.counters["dyn.touched_nodes"] +=
            static_cast<double>(now.touched_nodes - before[i].touched_nodes);
        phase.counters["dyn.recompute_avoided"] +=
            static_cast<double>(now.recompute_avoided - before[i].recompute_avoided);
      }
      phase.counters["dyn.churn_ops"] = static_cast<double>(churn_ops);
      phase.counters["dyn.ns_per_churn_op"] =
          churn_ops > 0 ? apply_ns / static_cast<double>(churn_ops) : 0.0;
    }
    return phase;
  }

 private:
  // ~168k edges, a 2 MiB edge list: a delete's scan streams from L3 on
  // every run.  At 20 000 nodes the 0.7 MiB list sat at the edge of the
  // L2 a core keeps on a shared host (a 768 KiB pointer chase ran at
  // 0.58-1.07x its median speed from one quarter-second to the next), and
  // churn's ops_per_s swung 2x between runs minutes apart.
  static constexpr int kRandomNodes = 60'000;
  static constexpr int kHubs = 400;
  static constexpr int kHubDegree = 48;
  static constexpr int kPlanBatches = 2048;
  // Whole cycles of three random batches and one hub batch.  A delete
  // scans the whole edge list, so a random batch (~168k edges) is slower
  // than a hub batch (19 200 edges); with 3 of 4 ops random, the median
  // falls inside the random cluster, not on the seam between the two.
  static constexpr std::array<std::size_t, 4> kCycle = {0, 0, 1, 0};

  std::array<Instance, 2> instances_;
  std::int64_t op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn() { return std::make_unique<Churn>(); }

}  // namespace perfbench
