// simulate — closed loop, one caller.  One op is one greedy run on the
// flat engine (local::run_flat) with one engine worker.  Ops cycle through
// a dense random instance and a hub-cluster instance; a minority run
// under a seeded FaultPlan, capture an EngineCheckpoint mid-run, write it,
// read it back into a fresh FlatEngine and resume — the resumed result
// must equal the uninterrupted one.
//
// Stresses: the engine's init / send / receive phases, fault masks and
// checkpoint I/O.  Bypasses: svc, dyn, nbhd, lower.
#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dmm.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace dmm;

struct FaultCase {
  local::FaultPlan plan;
  int max_rounds = 0;
  local::RunResult reference;  // uninterrupted faulty run, computed in set-up
};

struct Instance {
  std::string name;
  graph::EdgeColouredGraph graph{0, 1};
  int checkpoint_round = 0;
  // Faulty runs rotate through several seeded plans, so how long one plan
  // keeps nodes down does not decide the run's tail.
  std::vector<FaultCase> faults;
};

class Simulate final : public Workload {
 public:
  int setup_reps() const override { return 7; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    source_ = algo::greedy_program_factory();
    {
      Span span(tracer, "graph.generate");
      Rng rng(mix_seed(seed, 1));
      instances_[0].name = "random";
      instances_[0].graph = graph::random_coloured_graph(kRandomNodes, 12, 0.7, rng);
      instances_[1].name = "hub";
      instances_[1].graph = graph::hub_cluster_graph(kHubs, kHubDegree, kHubFirstColour);
    }
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Instance& inst = instances_[i];
      const int k = inst.graph.k();
      inst.checkpoint_round = std::max(1, k / 2);
      inst.faults.assign(kFaultPlans, FaultCase{});
      for (std::size_t p = 0; p < inst.faults.size(); ++p) {
        FaultCase& fc = inst.faults[p];
        {
          Span span(tracer, "setup.plan");
          local::FaultSpec spec;
          spec.crash_prob = 0.02;
          spec.horizon = 6;
          spec.min_down = 1;
          spec.max_down = 3;
          spec.permanent_prob = 0.25;
          spec.drop_prob = 0.01;
          spec.seed = mix_seed(seed, 10 + kFaultPlans * i + p);
          fc.plan = local::FaultPlan::random(inst.graph, spec);
        }
        fc.max_rounds = std::max(k + 1, fc.plan.max_restart_round() + k + 2);
        Span span(tracer, "setup.reference");
        fc.reference =
            local::run_flat(inst.graph, source_, faulty_options(fc, {}), engine_options());
      }
    }
  }

  Phase run(double seconds, Tracer* tracer) override {
    // One cycle: three clean runs of the random instance and two of the
    // hub instance, then one faulty + checkpoint/resume run of each under
    // the cycle's fault plan.  Whole cycles only, so every run has the
    // same op mix; with 4 of 7 ops on the slower random instance, the
    // median falls inside its clean runs rather than on the boundary
    // between the two instances.
    static constexpr std::array<std::pair<int, bool>, 7> kCycle = {
        {{0, false}, {1, false}, {0, false}, {1, false}, {0, false}, {0, true}, {1, true}}};
    Phase phase;
    const Clock::time_point start = Clock::now();
    const auto budget_ns = seconds * 1e9;
    do {
      const std::size_t plan = cycle_++ % kFaultPlans;
      const double busy_before = phase.busy_ns;
      for (const auto& [which, faulty] : kCycle) {
        Instance& inst = instances_[static_cast<std::size_t>(which)];
        if (faulty) {
          faulty_op(inst, inst.faults[plan], phase, tracer);
        } else {
          clean_op(inst, phase, tracer);
        }
        ++op_;
      }
      phase.cycle_ops_per_s.push_back(kCycle.size() * 1e9 / (phase.busy_ns - busy_before));
    } while (ns_between(start, Clock::now()) < budget_ns);
    phase.wall_ns = ns_between(start, Clock::now());
    return phase;
  }

 private:
  // Small enough that the shared L3 holds a run's working set with room
  // to spare.  At 30 000 nodes and 200 hubs, two processes streaming
  // through memory on other CPUs slowed ops_per_s by 19% and p50 by 32%;
  // at these sizes, by 4%.  On a shared host other tenants do the same,
  // and at 30 000 nodes ops_per_s spread 0.2-0.26 (IQR / median) over ten
  // runs.
  static constexpr int kRandomNodes = 10'000;
  static constexpr int kHubs = 40;
  static constexpr int kHubDegree = 48;
  static constexpr int kHubFirstColour = 8;
  static constexpr std::size_t kFaultPlans = 4;
  // One worker: on a 4-vCPU machine, two made these runs no faster and
  // their run-to-run spread 3-4x wider.
  static constexpr int kEngineWorkers = 1;

  local::FlatEngineOptions engine_options() const {
    local::FlatEngineOptions options;
    options.threads = kEngineWorkers;
    return options;
  }

  static local::RunOptions faulty_options(const FaultCase& fc,
                                          const local::CheckpointOptions& checkpoint) {
    local::RunOptions options;
    options.max_rounds = fc.max_rounds;
    options.faults.plan = &fc.plan;
    options.checkpoint = checkpoint;
    return options;
  }

  /// Splits a finished run call's wall into the engine's own phases; the
  /// rest of the enclosing span stays as local.run_other.
  static void attribute_run(Tracer* tracer, const local::RunResult& r, bool with_init) {
    if (tracer == nullptr) return;
    if (with_init) tracer->attribute("local.init", r.init_ns);
    tracer->attribute("local.send", r.send_ns);
    tracer->attribute("local.receive", r.receive_ns);
  }

  void finish_op(Phase& phase, Clock::time_point start) {
    const double ns = ns_between(start, Clock::now());
    phase.busy_ns += ns;
    phase.latency_ms.push_back(ns / 1e6);
    ++phase.attempted;
  }

  void clean_op(const Instance& inst, Phase& phase, Tracer* tracer) {
    const Clock::time_point start = Clock::now();
    local::RunResult r;
    try {
      Span span(tracer, "local.run_other", op_);
      local::RunOptions options;
      options.max_rounds = inst.graph.k() + 1;
      r = local::run_flat(inst.graph, source_, options, engine_options());
      attribute_run(tracer, r, true);
    } catch (const std::exception& e) {
      finish_op(phase, start);
      fail(phase, inst.name + " run threw: " + e.what());
      return;
    }
    finish_op(phase, start);
    Span check(tracer, "verify.check", op_);
    const verify::MatchingReport report = verify::check_outputs(inst.graph, r.outputs);
    if (!report.ok()) {
      fail(phase, inst.name + " run is not a maximal matching: " + report.describe());
    } else if (r.rounds > inst.graph.k() - 1) {
      fail(phase, inst.name + " run took " + std::to_string(r.rounds) + " rounds > k-1");
    }
    check.close();
    if (tracer != nullptr) count_run(phase, r);
  }

  void faulty_op(const Instance& inst, const FaultCase& fc, Phase& phase, Tracer* tracer) {
    const Clock::time_point start = Clock::now();
    local::RunResult uninterrupted;
    local::RunResult resumed;
    std::size_t checkpoint_bytes = 0;
    try {
      // The uninterrupted faulty run, capturing the first checkpoint.
      std::optional<local::EngineCheckpoint> captured;
      local::CheckpointOptions capture;
      capture.every = inst.checkpoint_round;
      capture.sink = [&captured](const local::EngineCheckpoint& cp) {
        if (!captured) captured = cp;
      };
      {
        Span span(tracer, "local.run_other", op_);
        uninterrupted = local::run_flat(inst.graph, source_, faulty_options(fc, capture),
                                        engine_options());
        attribute_run(tracer, uninterrupted, true);
      }
      if (!captured) throw std::runtime_error("checkpoint sink never fired");
      std::string bytes;
      {
        Span span(tracer, "local.checkpoint_write", op_);
        std::ostringstream out;
        captured->write(out);
        bytes = out.str();
      }
      checkpoint_bytes = bytes.size();
      // Resume on a fresh engine.  The constructor is this run's init;
      // read + restore (which re-initialises the programs) is its own
      // layer, so RunResult::init_ns — which covers both — is not used.
      {
        Span span(tracer, "local.run_other", op_);
        const Clock::time_point build = Clock::now();
        local::FlatEngine engine(inst.graph, source_, fc.max_rounds, engine_options());
        if (tracer != nullptr) tracer->attribute("local.init", ns_between(build, Clock::now()));
        {
          Span restore(tracer, "local.restore", op_);
          std::istringstream in(bytes);
          engine.restore(local::EngineCheckpoint::read(in));
        }
        resumed = engine.run(local::FaultOptions{&fc.plan});
        attribute_run(tracer, resumed, false);
      }
    } catch (const std::exception& e) {
      finish_op(phase, start);
      fail(phase, inst.name + " faulty run threw: " + e.what());
      return;
    }
    finish_op(phase, start);
    Span check(tracer, "verify.check", op_);
    if (!same_run(uninterrupted, fc.reference)) {
      fail(phase, inst.name + " faulty run differs from its set-up reference");
    } else if (!same_run(resumed, uninterrupted)) {
      fail(phase, inst.name + " resumed run differs from the uninterrupted run");
    }
    check.close();
    if (tracer != nullptr) {
      count_run(phase, uninterrupted);
      count_run(phase, resumed);
      phase.counters["local.checkpoint_bytes"] += static_cast<double>(checkpoint_bytes);
    }
  }

  local::ProgramSource source_;
  std::array<Instance, 2> instances_;
  std::size_t cycle_ = 0;
  std::int64_t op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_simulate() { return std::make_unique<Simulate>(); }

}  // namespace perfbench
