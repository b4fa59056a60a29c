// Shared helper for the engine-aware benches (e1, e2, e5, e14): run a
// NodeProgram on the chosen engine, time it, and append the BENCH_*.json
// record with the run's own rounds/message accounting.
#pragma once

#include <string>

#include "bench_json.hpp"
#include "core/dmm.hpp"

namespace dmm::benchjson {

inline local::RunResult record_engine_run(Harness& harness, const std::string& instance,
                                          const graph::EdgeColouredGraph& g,
                                          local::EngineKind kind,
                                          const local::ProgramSource& source,
                                          int max_rounds,
                                          const local::FlatEngineOptions& options = {}) {
  Record record;
  record.instance = instance;
  record.n = g.node_count();
  record.m = g.edge_count();
  record.k = g.k();
  record.engine = local::engine_kind_name(kind);
  // Sync is always serial; flat rows record the requested worker count so
  // the baseline gate can key rows by (instance, engine, threads).
  record.threads = kind == local::EngineKind::kFlat ? options.threads : 1;
  local::RunResult run;
  record.wall_ns = Harness::time_ns([&] {
    run = kind == local::EngineKind::kFlat ? local::run_flat(g, source, {max_rounds}, options)
                                           : local::run_sync(g, source, {max_rounds});
  });
  record.rounds = run.rounds;
  record.max_message_bytes = run.max_message_bytes;
  // dmm-bench-3: how much of the wall clock was setup (program
  // construction + init), and where the process RSS peaked.
  record.init_ms = run.init_ns / 1e6;
  record.rss_bytes = peak_rss_bytes();
  // dmm-bench-7: the per-phase wall-clock split (measurement only — these
  // fields are excluded from engine equivalence and never gated).
  record.send_ms = run.send_ns / 1e6;
  record.receive_ms = run.receive_ns / 1e6;
  harness.add(std::move(record));
  return run;
}

}  // namespace dmm::benchjson
