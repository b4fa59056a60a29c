// E9 — fault injection and checkpoint/replay recovery (ISSUE 8): what a
// faulty run costs over a clean one, what a checkpoint weighs, and how fast
// a killed run comes back.  The fault counters (crashes, restarts,
// messages_dropped) are pure functions of the seeded FaultPlan, so the
// baseline gates them on exact equality; checkpoint_bytes is deterministic
// for the same reason.  restore_ms is a wall-clock measurement and is
// recorded but never gated.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench_engines.hpp"
#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

// The fault counters every e9 row adds to the engine-run metrics (exact).
void add_fault_metrics(benchjson::Record& record, const local::RunResult& run) {
  record.metrics["crashes"] = static_cast<double>(run.crashes);
  record.metrics["restarts"] = static_cast<double>(run.restarts);
  record.metrics["messages_dropped"] = static_cast<double>(run.messages_dropped);
}

// The e9 workload: large enough that per-round engine cost is visible,
// small enough for the CI bench gate.  Everything below is seeded, so the
// pinned BENCH_e9.json counters reproduce on any machine.
graph::EdgeColouredGraph workload() {
  Rng rng(97);
  return graph::random_coloured_graph(20000, 8, 0.6, rng);
}

local::FaultPlan workload_plan(const graph::EdgeColouredGraph& g) {
  local::FaultSpec spec;
  spec.crash_prob = 0.02;
  spec.horizon = 6;
  spec.min_down = 1;
  spec.max_down = 3;
  spec.permanent_prob = 0.25;
  spec.drop_prob = 0.01;
  spec.seed = 1097;
  return local::FaultPlan::random(g, spec);
}

void print_rows(benchjson::Harness& harness) {
  const graph::EdgeColouredGraph g = workload();
  const local::FaultPlan plan = workload_plan(g);
  const local::FaultOptions faults{&plan};
  const int rounds_budget = plan.default_max_rounds(g.k());
  const local::ProgramSource greedy = algo::greedy_program_factory();
  // One greedy run on the chosen engine, recorded with its fault counters.
  const auto record_run = [&](const std::string& label, local::EngineKind kind,
                              const local::RunOptions& options,
                              const local::FlatEngineOptions& flat = {}) {
    return benchjson::record_engine_run(harness, label, g, kind, greedy, options, flat,
                                        add_fault_metrics);
  };

  std::printf("## E9a: fault-free vs faulty, greedy at n = %d, k = %d\n", g.node_count(),
              g.k());
  std::printf("%-28s %-6s %8s %12s %7s %8s %9s %7s\n", "instance", "engine", "threads",
              "wall (ms)", "rounds", "crashes", "restarts", "drops");
  const std::string clean_label = "random n=20000 k=8";
  const std::string faulty_label = "random n=20000 k=8 faults";
  const auto print_row = [&](const std::string& label, local::EngineKind kind, int threads,
                             const local::RunResult& run) {
    std::printf("%-28s %-6s %8d %12.2f %7d %8llu %9llu %7llu\n", label.c_str(),
                local::engine_kind_name(kind), threads,
                harness.records().back().metrics.at("wall_ns") / 1e6, run.rounds,
                static_cast<unsigned long long>(run.crashes),
                static_cast<unsigned long long>(run.restarts),
                static_cast<unsigned long long>(run.messages_dropped));
  };
  for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
    print_row(clean_label, kind, 1, record_run(clean_label, kind, {g.k() + 1}));
  }
  local::RunResult faulty_serial;
  for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
    const local::RunResult run = record_run(faulty_label, kind, {rounds_budget, faults});
    if (kind == local::EngineKind::kSync) faulty_serial = run;
    print_row(faulty_label, kind, 1, run);
  }
  {
    // The schedule-independence claim in one row: four workers, same plan,
    // same counters — the baseline gate pins all three against the serial
    // rows above.
    local::FlatEngineOptions options;
    options.threads = 4;
    const local::RunResult run =
        record_run(faulty_label, local::EngineKind::kFlat, {rounds_budget, faults}, options);
    print_row(faulty_label, local::EngineKind::kFlat, 4, run);
    if (run.outputs != faulty_serial.outputs || run.crashes != faulty_serial.crashes ||
        run.restarts != faulty_serial.restarts ||
        run.messages_dropped != faulty_serial.messages_dropped) {
      std::fprintf(stderr, "e9: threaded faulty run diverged from the serial oracle\n");
      std::abort();
    }
  }
  std::printf("\n");

  // E9b: capture a checkpoint mid-run, then measure what recovery costs:
  // checkpoint_bytes is the serialised frame size, restore_ms times
  // EngineCheckpoint::read (+ FlatEngine::restore on the flat row).  The
  // resumed run must finish bit-identical to the uninterrupted one — the
  // bench aborts if it ever does not, so a green baseline row doubles as a
  // recovery smoke check.
  std::printf("## E9b: checkpoint + restore, greedy under faults, every 2 rounds\n");
  std::printf("%-28s %-6s %12s %12s %13s %8s\n", "instance", "engine", "wall (ms)",
              "ckpt bytes", "restore (ms)", "resumed");
  const std::string ckpt_label = "random n=20000 k=8 ckpt";
  for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
    local::EngineCheckpoint last;
    bool captured = false;
    local::CheckpointOptions capture;
    capture.every = 2;
    capture.sink = [&](const local::EngineCheckpoint& ck) {
      last = ck;
      captured = true;
    };
    local::EngineCheckpoint parsed;
    const local::RunResult run = benchjson::record_engine_run(
        harness, ckpt_label, g, kind, greedy, {rounds_budget, faults, capture}, {},
        [&](benchjson::Record& record, const local::RunResult& result) {
          add_fault_metrics(record, result);
          if (!captured) {
            std::fprintf(stderr, "e9: checkpoint sink never fired\n");
            std::abort();
          }
          std::ostringstream frames;
          last.write(frames);
          const std::string bytes = frames.str();
          record.metrics["checkpoint_bytes"] = static_cast<double>(bytes.size());

          // restore_ms: parse + validate the frames, and on the flat row
          // also load them into a live engine (the sync engine has no
          // persistent object to restore into — its resume path re-reads
          // inside run_sync).
          record.metrics["restore_ms"] = benchjson::Harness::time_ns([&] {
            std::istringstream in(bytes);
            parsed = local::EngineCheckpoint::read(in);
            parsed.require_matches(g);
            if (kind == local::EngineKind::kFlat) {
              local::FlatEngine engine(g, greedy, rounds_budget, {});
              engine.restore(parsed);
            }
          }) / 1e6;
        });

    local::CheckpointOptions resume;
    resume.resume = &parsed;
    const local::RunResult resumed = local::run(kind, g, greedy, {rounds_budget, faults, resume});
    const bool ok = resumed.outputs == run.outputs && resumed.halt_round == run.halt_round &&
                    resumed.rounds == run.rounds && resumed.crashes == run.crashes &&
                    resumed.restarts == run.restarts &&
                    resumed.messages_dropped == run.messages_dropped;
    if (!ok) {
      std::fprintf(stderr, "e9: resumed run diverged from the uninterrupted run\n");
      std::abort();
    }
    const auto& metric = harness.records().back().metrics;
    std::printf("%-28s %-6s %12.2f %12.0f %13.3f %8s\n", ckpt_label.c_str(),
                local::engine_kind_name(kind), metric.at("wall_ns") / 1e6,
                metric.at("checkpoint_bytes"), metric.at("restore_ms"), ok ? "ok" : "FAIL");
  }
  std::printf("\n");
}

void BM_FaultyRun(benchmark::State& state) {
  const graph::EdgeColouredGraph g = workload();
  const local::FaultPlan plan = workload_plan(g);
  const local::FaultOptions faults{&plan};
  const int budget = plan.default_max_rounds(g.k());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::run_flat(g, algo::greedy_program_factory(), {budget, faults}));
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(BM_FaultyRun);

void BM_DropHash(benchmark::State& state) {
  // The per-message cost every drop-enabled round pays: one stateless hash
  // per (round, sender, colour) triple.
  local::FaultPlan plan;
  plan.set_drops(0.01, 1097);
  int round = 1;
  for (auto _ : state) {
    bool any = false;
    for (graph::NodeIndex v = 0; v < 4096; ++v) {
      any ^= plan.drops(round, v, static_cast<gk::Colour>(1 + (v & 7)));
    }
    benchmark::DoNotOptimize(any);
    ++round;
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DropHash);

void BM_CheckpointCapture(benchmark::State& state) {
  const graph::EdgeColouredGraph g = workload();
  // Capture at round 2 of a clean run: most nodes are still running, so
  // this is the expensive end (every live program serialises its state).
  local::EngineCheckpoint snap;
  local::CheckpointOptions capture;
  capture.every = 2;
  capture.sink = [&](const local::EngineCheckpoint& ck) {
    if (snap.round == 0) snap = ck;
  };
  (void)local::run_sync(g, algo::greedy_program_factory(), {g.k() + 1, {}, capture});
  for (auto _ : state) {
    std::ostringstream out;
    snap.write(out);
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_CheckpointCapture);

void BM_CheckpointRestore(benchmark::State& state) {
  const graph::EdgeColouredGraph g = workload();
  local::EngineCheckpoint snap;
  local::CheckpointOptions capture;
  capture.every = 2;
  capture.sink = [&](const local::EngineCheckpoint& ck) {
    if (snap.round == 0) snap = ck;
  };
  (void)local::run_sync(g, algo::greedy_program_factory(), {g.k() + 1, {}, capture});
  std::ostringstream out;
  snap.write(out);
  const std::string bytes = out.str();
  local::FlatEngine engine(g, algo::greedy_program_factory(), g.k() + 1, {});
  for (auto _ : state) {
    std::istringstream in(bytes);
    engine.restore(in);
    benchmark::DoNotOptimize(engine.snapshot().round);
  }
}
BENCHMARK(BM_CheckpointRestore);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e9", argc, argv, print_rows);
}
