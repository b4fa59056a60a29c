// Shared helpers for the engine-aware benches (e1, e2, e5, e14; e9 adds
// its fault counters to the same run metrics): run a NodeProgram on the
// chosen engine, time it, and append the BENCH_*.json record with the
// run's own rounds/message accounting and phase split.
#pragma once

#include <string>

#include "bench_json.hpp"
#include "core/dmm.hpp"

namespace dmm::benchjson {

/// The metrics every engine row takes from its RunResult: rounds and
/// message size (exact), how much of the wall clock was setup (program
/// construction + init) and the per-phase split (recorded; never part of
/// engine equivalence), and where the process RSS peaked.
inline void add_run_metrics(Record& record, const local::RunResult& run) {
  record.metrics["rounds"] = run.rounds;
  record.metrics["max_message_bytes"] = static_cast<double>(run.max_message_bytes);
  record.metrics["init_ms"] = run.init_ns / 1e6;
  record.metrics["send_ms"] = run.send_ns / 1e6;
  record.metrics["receive_ms"] = run.receive_ns / 1e6;
  record.metrics["rss_bytes"] = static_cast<double>(peak_rss_bytes());
}

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
  record.metrics["wall_ns"] = Harness::time_ns([&] {
    run = kind == local::EngineKind::kFlat ? local::run_flat(g, source, {max_rounds}, options)
                                           : local::run_sync(g, source, {max_rounds});
  });
  add_run_metrics(record, run);
  harness.add(std::move(record));
  return run;
}

}  // namespace dmm::benchjson
