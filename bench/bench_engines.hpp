// Shared helper for the engine-aware benches (e1, e2, e5, e9, e14): run a
// NodeProgram on the chosen engine, time it, and append the BENCH_*.json
// record with the run's own rounds/message accounting and phase split.
#pragma once

#include <functional>
#include <string>

#include "bench_json.hpp"
#include "core/dmm.hpp"

namespace dmm::benchjson {

/// Runs `source` on `g` under the chosen engine, timed, and appends the
/// row's record: its identity, wall_ns, the metrics every engine row takes
/// from its RunResult, and whatever `more` adds on top (e9's fault and
/// checkpoint metrics).  The run metrics are rounds and message size
/// (exact), how much of the wall clock was setup (program construction +
/// init) and the per-phase split (recorded; never part of engine
/// equivalence), and where the process RSS peaked.
inline local::RunResult record_engine_run(
    Harness& harness, const std::string& instance, const graph::EdgeColouredGraph& g,
    local::EngineKind kind, const local::ProgramSource& source,
    const local::RunOptions& run_options, const local::FlatEngineOptions& options = {},
    const std::function<void(Record&, const local::RunResult&)>& more = nullptr) {
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
    run = kind == local::EngineKind::kFlat ? local::run_flat(g, source, run_options, options)
                                           : local::run_sync(g, source, run_options);
  });
  record.metrics["rounds"] = run.rounds;
  record.metrics["max_message_bytes"] = static_cast<double>(run.max_message_bytes);
  record.metrics["init_ms"] = run.init_ns / 1e6;
  record.metrics["send_ms"] = run.send_ns / 1e6;
  record.metrics["receive_ms"] = run.receive_ns / 1e6;
  record.metrics["rss_bytes"] = static_cast<double>(peak_rss_bytes());
  if (more) more(record, run);
  harness.add(std::move(record));
  return run;
}

}  // namespace dmm::benchjson
