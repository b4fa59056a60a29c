// dmm_cli — command-line driver for the library.
//
//   dmm_cli greedy     --instance <spec> [--engine <sync|flat>] [--threads <n>]
//                      [--chunk-slots <n>] [--no-steal] [--faults <spec>]
//                      [--checkpoint <path>] [--checkpoint-every <rounds>]
//                      [--max-rounds <n>] [--round-sleep-ms <ms>] [--json]
//   dmm_cli resume     <checkpoint-path> --instance <spec> [greedy options]
//   dmm_cli serve      [--tenants <n>] [--jobs-per-tenant <n>] [--inflight <n>]
//                      [--quantum <n>] [--threads <n>] [--engine <sync|flat>]
//                      [--instance <spec>] [--faults <spec>] [--max-rounds <n>]
//                      [--json]
//   dmm_cli churn      --instance <spec> [--batches <n>] [--ops-per-batch <n>]
//                      [--seed <s>] [--insert-fraction <pct>] [--engine <sync|flat>]
//                      [--threads <n>] [--oracle] [--json]
//   dmm_cli adversary  --k <k> --algorithm <spec> [--certificate-out <path>]
//                      [--pair-out <prefix>] [--no-memo] [--optimistic]
//   dmm_cli views      <k> <d> <rho> [--threads <n>] [--json] [--max-views <n>] [--orbits]
//   dmm_cli lemma4     --algorithm <spec>
//   dmm_cli check      --certificate <path> --algorithm <spec>
//   dmm_cli export-dot --instance <spec> [--out <path>]
//
// Every verb declares its flags once (util::Flags): an unknown or repeated
// flag, a missing or malformed value, a number below its bound, a missing
// required flag or a stray argument prints the verb's usage line and exits 2.
//
// `views` runs the Remark-2 / Linial pipeline end to end — catalogue size,
// compatible-pair count, CSP verdict, and the wall time of its enumerate
// (with the catalogue's pair index), pairs (the list alone) and solve (the
// list check and the search) phases — so the UNSAT frontier is
// reproducible without building the bench binaries.  A k beyond the CSP's
// 30 mask colours exits 2 before anything is enumerated.  `--orbits` switches
// to the colour-permutation orbit pipeline (identical verdicts, ~k!-fold
// smaller materialised catalogue); on catalogues beyond the max_views
// guard it falls back to the Burnside census alone, which is how
// `dmm_cli views 5 4 3 --orbits` reports the ~2.1e10-view frontier.
//
// Instance specs:
//   chain:<k>            the §1.2 worst-case long path
//   figure1              the Figure-1 style k=4 graph
//   hypercube:<d>        Q_d with dimension colours (d = k trivial case)
//   bipartite:<d>        K_{d,d} with perfect colour classes
//   random:<n>:<k>:<pct>:<seed>
//   star:<leaves>        one hub of degree <leaves> (max 255: Colour is 8-bit)
//   skewed:<hubs>:<deg>:<first>  hub cluster (power-law-style two-point
//                        degree distribution; colours first..first+deg-1)
//   file:<path>          dmm-graph format (see src/io/serialize.hpp)
//
// Algorithm specs:
//   greedy:<k>           the real greedy algorithm (Lemma 1)
//   truncated:<k>:<r>    radius-limited greedy (refuted when r < k-1)
//   firstcolour:<k>      the 0-round heuristic
//   arbitrary:<k>:<r>:<seed>
//
// Fault specs (--faults, docs/faults.md):
//   crash=<p>,down=<a>-<b>,perm=<p>,drop=<p>,horizon=<r>,seed=<s>
// e.g. --faults crash=0.02,down=1-3,perm=0.25,drop=0.01,seed=7.  With
// faults injected the matching may legitimately be broken at crashed
// nodes, so `greedy --faults` exits 0 regardless of the verification
// verdict (the verdict is still printed / emitted in --json).
//
// --checkpoint <path> writes an EngineCheckpoint to <path> every
// --checkpoint-every rounds (default 1), atomically (tmp + rename), so a
// SIGKILL at any moment leaves a loadable file.  `dmm_cli resume <path>
// --instance <spec> ...` continues such a run to completion; given the
// same instance, engine family and --faults spec, the finished run is
// bit-identical to the uninterrupted one (the CI fault-recovery step
// diffs the outputs_fnv of both).  --round-sleep-ms slows the run down
// (sleeping inside the checkpoint sink only) so a kill lands mid-run.
// Both need --checkpoint (resume checkpoints back into its <path>).
//
// `serve` drives the multi-tenant front-end (svc::MatchingService,
// docs/service.md): it submits --jobs-per-tenant copies of the greedy job
// per tenant, interleaves all sessions on one shared Runtime, and diffs
// every tenant's outputs_fnv against the same job run standalone — the CI
// serve-smoke step asserts `all_match` and exits non-zero on divergence.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/dmm.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

using namespace dmm;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dmm_cli: " << message << "\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

/// Writes `text` to `path`, or fails (exit 2) naming the path: a missing
/// directory or a full disk must not pass for a written file.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) fail("cannot write " + path);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* const kInstanceUsage =
    "instance spec: chain:<k> | figure1 | hypercube:<d> | bipartite:<d> | "
    "random:<n>:<k>:<pct>:<seed> | star:<leaves> | skewed:<hubs>:<deg>:<first> | file:<path>";

/// The numeric fields of an instance or algorithm spec, each a whole T;
/// anything else prints `usage` and exits 2.
template <class T>
T spec_number(const std::string& token, const std::string& usage) {
  const std::optional<T> value = util::parse_number<T>(token);
  if (!value) fail(usage);
  return *value;
}

graph::EdgeColouredGraph parse_instance(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.empty()) fail("empty instance spec");
  const std::string usage = "bad instance spec '" + spec + "'; " + kInstanceUsage;
  const auto integer = [&](std::size_t i) { return spec_number<int>(parts[i], usage); };
  if (parts[0] == "chain" && parts.size() == 2) {
    return graph::worst_case_chain(integer(1)).long_path;
  }
  if (parts[0] == "figure1") return graph::figure1_graph();
  if (parts[0] == "hypercube" && parts.size() == 2) {
    return graph::hypercube(integer(1));
  }
  if (parts[0] == "bipartite" && parts.size() == 2) {
    return graph::complete_bipartite(integer(1));
  }
  if (parts[0] == "random" && parts.size() == 5) {
    Rng rng(spec_number<std::uint64_t>(parts[4], usage));
    return graph::random_coloured_graph(integer(1), integer(2),
                                        spec_number<double>(parts[3], usage) / 100.0, rng);
  }
  if (parts[0] == "star" && parts.size() == 2) {
    return graph::star_graph(integer(1));
  }
  if (parts[0] == "skewed" && parts.size() == 4) {
    return graph::hub_cluster_graph(spec_number<std::int64_t>(parts[1], usage), integer(2),
                                    integer(3));
  }
  if (parts[0] == "file" && parts.size() == 2) {
    return io::read_graph(slurp(parts[1]));
  }
  fail("unknown instance spec '" + spec + "'; " + kInstanceUsage);
}

std::unique_ptr<local::LocalAlgorithm> parse_algorithm(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.empty()) fail("empty algorithm spec");
  const std::string usage =
      "bad algorithm spec '" + spec +
      "'; algorithm spec: greedy:<k> | truncated:<k>:<r> | firstcolour:<k> | "
      "arbitrary:<k>:<r>:<seed>";
  const auto integer = [&](std::size_t i) { return spec_number<int>(parts[i], usage); };
  if (parts[0] == "greedy" && parts.size() == 2) {
    return std::make_unique<algo::GreedyLocal>(integer(1));
  }
  if (parts[0] == "truncated" && parts.size() == 3) {
    return std::make_unique<algo::TruncatedGreedy>(integer(1), integer(2));
  }
  if (parts[0] == "firstcolour" && parts.size() == 2) {
    return std::make_unique<algo::FirstColourLocal>(integer(1));
  }
  if (parts[0] == "arbitrary" && parts.size() == 4) {
    return std::make_unique<algo::ArbitraryLocal>(integer(1), integer(2),
                                                  spec_number<std::uint64_t>(parts[3], usage));
  }
  fail("unknown algorithm spec '" + spec + "'");
}

/// FNV-1a of `word` fed as 8 little-endian bytes, chained on from `h`.
std::uint64_t fnv_word(std::uint64_t h, std::uint64_t word) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(word >> (8 * i));
  return fnv1a(bytes, sizeof bytes, h);
}

/// FNV-1a over the per-node halt rounds, chained on from `h`.
std::uint64_t halt_rounds_fnv(const local::RunResult& run, std::uint64_t h = kFnvOffset) {
  for (const int r : run.halt_round) h = fnv_word(h, static_cast<std::uint32_t>(r));
  return h;
}

/// FNV-1a over the per-node outputs and halt rounds — the one-line
/// fingerprint the CI fault-recovery step diffs between an interrupted
/// and an uninterrupted run.
std::uint64_t outputs_fnv(const local::RunResult& run) {
  std::uint64_t h = kFnvOffset;
  for (const local::Colour c : run.outputs) h = fnv_word(h, c);
  return halt_rounds_fnv(run, h);
}

/// Sixteen lower-case hex digits.
std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

/// Atomic AND durable checkpoint write.  The tmp + rename pair covers a
/// SIGKILL between any two instructions (the old complete file or the new
/// one, never a torn frame); durability against power loss additionally
/// needs the tmp file fsynced before the rename (or the rename can land
/// pointing at not-yet-flushed data) and the parent directory fsynced
/// after it (or the rename itself can be lost).  A frame that does slip
/// through torn is still caught at load time by the checksum
/// (io::CorruptFrameError) — that path detects the damage, this one
/// prevents it.
void write_checkpoint_file(const local::EngineCheckpoint& ck, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::ostringstream buffer(std::ios::binary);
  ck.write(buffer);
  const std::string bytes = buffer.str();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open checkpoint file " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      ::close(fd);
      fail("cannot write checkpoint file " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail("cannot fsync checkpoint file " + tmp);
  }
  if (::close(fd) != 0) fail("cannot close checkpoint file " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot move checkpoint into place at " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) fail("cannot open checkpoint directory " + dir);
  if (::fsync(dirfd) != 0) {
    ::close(dirfd);
    fail("cannot fsync checkpoint directory " + dir);
  }
  ::close(dirfd);
}

/// The run set-up greedy/resume, serve and churn share: --instance,
/// --engine, --threads, --json and (with `faults`) the --faults plan and
/// the --max-rounds budget.  Set the verb's defaults, declare(), parse the
/// flags, then build(); an empty `instance` makes --instance required.
struct RunSetup {
  std::string instance;
  local::EngineKind engine = local::EngineKind::kSync;
  int threads = 1;
  bool engine_threads = true;  // --threads sizes the flat engine, so needs --engine flat
  bool json = false;
  bool faults = true;
  std::string fault_spec;
  int max_rounds = 0;     // 0: not given, so build() picks the default
  local::FaultPlan plan;  // set by build()

  void declare(util::Flags& flags) {
    flags.option("--instance", instance);
    if (instance.empty()) flags.required();
    flags.option("--engine", engine, local::parse_engine_kind)
        .number("--threads", threads, 1)
        .flag("--json", json);
    if (faults) flags.option("--faults", fault_spec).number("--max-rounds", max_rounds, 1);
  }

  /// The instance; also sets `plan`, and `max_rounds` unless given.
  graph::EdgeColouredGraph build(const std::string& cmd) {
    if (engine_threads && threads > 1 && engine != local::EngineKind::kFlat) {
      fail(cmd + ": --threads requires --engine flat");
    }
    graph::EdgeColouredGraph g = parse_instance(instance);
    // The plan is seeded and schedule-independent, so the same --faults
    // spec names the same plan on both engines and across a kill/resume
    // boundary.
    if (!fault_spec.empty()) {
      plan = local::FaultPlan::random(g, local::parse_fault_spec(fault_spec));
    }
    // A restarted node still has to finish its protocol, so faulty runs get
    // headroom past the last restart round by default.
    if (max_rounds == 0) max_rounds = plan.default_max_rounds(g.k());
    return g;
  }
};

/// Shared body of `greedy` and `resume <path>`: run greedy on the chosen
/// engine with optional fault injection and checkpointing.
int run_greedy(const std::vector<std::string>& args, bool resume) {
  const std::string cmd = resume ? "resume" : "greedy";
  util::Flags flags(cmd + ": usage: " + (resume ? "resume <checkpoint-path>" : "greedy") +
                    " --instance <spec> [--engine sync|flat] [--threads N>=1]"
                    " [--chunk-slots N>=0] [--no-steal] [--faults <spec>] [--checkpoint <path>]"
                    " [--checkpoint-every N>=1] [--max-rounds N>=1] [--round-sleep-ms MS>=0]"
                    " [--json]");
  std::string resume_path;
  if (resume) flags.positional(resume_path);
  RunSetup setup;
  setup.declare(flags);
  // Scheduling knobs of the flat engine's persistent pool (results are
  // identical for every setting; these tune throughput on skewed graphs).
  // Each knob below is -1 until given, so a knob given where it does
  // nothing is a usage error whatever its value.
  local::FlatEngineOptions flat;
  std::int64_t chunk_slots = -1;
  bool no_steal = false;
  std::string ckpt_path;
  local::CheckpointOptions checkpoint;
  int sleep_ms = -1;
  flags.number("--chunk-slots", chunk_slots, 0)
      .flag("--no-steal", no_steal)
      .option("--checkpoint", ckpt_path)
      .number("--checkpoint-every", checkpoint.every, 1)
      .number("--round-sleep-ms", sleep_ms, 0);
  flags.parse(args);
  if ((chunk_slots >= 0 || no_steal) && setup.engine != local::EngineKind::kFlat) {
    fail(cmd + ": --chunk-slots/--no-steal require --engine flat");
  }
  if (chunk_slots >= 0) flat.chunk_slots = static_cast<std::size_t>(chunk_slots);
  const graph::EdgeColouredGraph g = setup.build(cmd);

  // `resume <path>` checkpoints back into the file it resumed from.
  if (ckpt_path.empty()) ckpt_path = resume_path;
  if (ckpt_path.empty()) {
    if (checkpoint.every > 0) fail(cmd + ": --checkpoint-every requires --checkpoint");
    if (sleep_ms >= 0) fail(cmd + ": --round-sleep-ms requires --checkpoint");
  } else {
    if (checkpoint.every == 0) checkpoint.every = 1;
    checkpoint.sink = [&](const local::EngineCheckpoint& ck) {
      if (sleep_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      write_checkpoint_file(ck, ckpt_path);
    };
  }

  local::EngineCheckpoint restored;
  if (resume) {
    std::ifstream in(resume_path, std::ios::binary);
    if (!in) fail("resume: cannot read " + resume_path);
    restored = local::EngineCheckpoint::read(in);
    restored.require_matches(g);  // a wrong --instance fails here, loudly
    checkpoint.resume = &restored;
  }

  const local::RunOptions options{setup.max_rounds, {&setup.plan}, checkpoint};
  local::RunResult run;
  if (setup.engine == local::EngineKind::kFlat) {
    flat.threads = setup.threads;
    flat.steal = !no_steal;
    run = local::run_flat(g, algo::greedy_program_factory(), options, flat);
  } else {
    run = local::run_sync(g, algo::greedy_program_factory(), options);
  }
  const verify::MatchingReport report = verify::check_outputs(g, run.outputs);
  const std::size_t matched = verify::matched_edges(g, run.outputs).size();
  if (setup.json) {
    std::cout << "{\"instance\":\"" << util::json_escape(setup.instance) << "\",\"engine\":\""
              << local::engine_kind_name(setup.engine) << "\",\"threads\":" << setup.threads
              << ",\"rounds\":" << run.rounds << ",\"matched_edges\":" << matched
              << ",\"crashes\":" << run.crashes << ",\"restarts\":" << run.restarts
              << ",\"messages_dropped\":" << run.messages_dropped
              << ",\"messages_sent\":" << run.messages_sent
              << ",\"total_message_bytes\":" << run.total_message_bytes
              << ",\"max_message_bytes\":" << run.max_message_bytes
              << ",\"valid\":" << (report.ok() ? "true" : "false") << ",\"outputs_fnv\":\""
              << hex64(outputs_fnv(run)) << "\",\"halt_rounds_fnv\":\""
              << hex64(halt_rounds_fnv(run)) << "\"}\n";
  } else {
    std::cout << "instance: " << setup.instance << " (n=" << g.node_count() << ", k=" << g.k()
              << ")\n";
    std::cout << "engine: " << local::engine_kind_name(setup.engine);
    if (setup.threads > 1) std::cout << " (threads=" << setup.threads << ")";
    std::cout << "\n";
    if (resume) {
      std::cout << "resumed: " << resume_path << " (rounds 1.." << restored.round
                << " already complete)\n";
    }
    std::cout << "rounds: " << run.rounds << " (bound k-1 = " << g.k() - 1 << ")\n";
    if (!setup.plan.empty()) {
      std::cout << "faults: " << run.crashes << " crash(es), " << run.restarts
                << " restart(s), " << run.messages_dropped << " message(s) dropped\n";
    }
    std::cout << "matched edges: " << matched << "\n";
    std::cout << "max message: " << run.max_message_bytes << " byte(s)\n";
    std::cout << "verification: " << report.describe() << "\n";
  }
  // Crashed nodes legitimately break the matching at their edges, so a
  // faulty run reports the verdict but does not fail on it.
  if (!setup.plan.empty()) return 0;
  return report.ok() ? 0 : 1;
}

/// Multi-tenant front-end driver: N tenants × J greedy jobs through one
/// MatchingService, every result fingerprinted against the standalone run.
int cmd_serve(const std::vector<std::string>& args) {
  util::Flags flags(
      "serve: usage: serve [--tenants N>=1] [--jobs-per-tenant N>=1] [--inflight N>=1]"
      " [--quantum N>=1] [--threads N>=1] [--engine sync|flat] [--instance <spec>]"
      " [--faults <spec>] [--max-rounds N>=1] [--json]");
  RunSetup setup;
  setup.instance = "random:600:4:70:1";
  setup.engine = local::EngineKind::kFlat;
  setup.threads = 2;
  setup.engine_threads = false;  // the service's shared runtime serves either engine
  setup.declare(flags);
  int tenants = 3;
  int jobs_per_tenant = 4;
  svc::ServiceOptions opts;
  flags.number("--tenants", tenants, 1)
      .number("--jobs-per-tenant", jobs_per_tenant, 1)
      .number("--inflight", opts.inflight, 1)
      .number("--quantum", opts.quantum, 1);
  flags.parse(args);
  const graph::EdgeColouredGraph g = setup.build("serve");

  // The oracle: the same job run standalone (closed-loop, private engine).
  local::RunOptions ropts;
  ropts.max_rounds = setup.max_rounds;
  if (!setup.plan.empty()) ropts.faults.plan = &setup.plan;
  const local::RunResult standalone =
      local::run(setup.engine, g, algo::greedy_program_factory(), ropts);
  const std::uint64_t want = outputs_fnv(standalone);

  opts.threads = setup.threads;
  svc::MatchingService service(opts);

  std::vector<std::vector<std::future<local::RunResult>>> futures(
      static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    std::vector<svc::Job> jobs(static_cast<std::size_t>(jobs_per_tenant));
    for (svc::Job& job : jobs) {
      job.graph = g;
      job.source = algo::greedy_program_factory();
      job.max_rounds = setup.max_rounds;
      job.engine = setup.engine;
      job.faults = setup.plan;
    }
    futures[static_cast<std::size_t>(t)] =
        service.submit_batch("tenant-" + std::to_string(t), std::move(jobs));
  }

  std::vector<std::uint64_t> tenant_fnv(static_cast<std::size_t>(tenants), 0);
  std::vector<bool> tenant_match(static_cast<std::size_t>(tenants), true);
  bool all_match = true;
  for (int t = 0; t < tenants; ++t) {
    for (auto& future : futures[static_cast<std::size_t>(t)]) {
      const std::uint64_t got = outputs_fnv(future.get());
      tenant_fnv[static_cast<std::size_t>(t)] = got;
      if (got != want) {
        tenant_match[static_cast<std::size_t>(t)] = false;
        all_match = false;
      }
    }
  }
  const svc::ServiceStats stats = service.stats();

  const std::string want_hex = hex64(want);
  if (setup.json) {
    std::cout << "{\"instance\":\"" << util::json_escape(setup.instance) << "\",\"engine\":\""
              << local::engine_kind_name(setup.engine) << "\",\"tenants\":" << tenants
              << ",\"jobs_per_tenant\":" << jobs_per_tenant
              << ",\"inflight\":" << opts.inflight << ",\"quantum\":" << opts.quantum
              << ",\"threads\":" << opts.threads << ",\"sessions\":" << stats.sessions
              << ",\"pool_spawns\":" << stats.pool_spawns
              << ",\"threads_spawned\":" << stats.threads_spawned
              << ",\"fairness_ratio\":" << stats.fairness_ratio << ",\"standalone_fnv\":\""
              << want_hex << "\",\"tenant\":[";
    for (int t = 0; t < tenants; ++t) {
      if (t > 0) std::cout << ",";
      std::cout << "{\"tenant\":\"tenant-" << t << "\",\"outputs_fnv\":\""
                << hex64(tenant_fnv[static_cast<std::size_t>(t)])
                << "\",\"match\":"
                << (tenant_match[static_cast<std::size_t>(t)] ? "true" : "false") << "}";
    }
    std::cout << "],\"all_match\":" << (all_match ? "true" : "false") << "}\n";
  } else {
    std::cout << "instance: " << setup.instance << " (n=" << g.node_count() << ", k=" << g.k()
              << ")\n";
    std::cout << "service: " << tenants << " tenant(s) x " << jobs_per_tenant
              << " job(s), engine " << local::engine_kind_name(setup.engine) << ", inflight "
              << opts.inflight << ", quantum " << opts.quantum << ", threads "
              << opts.threads << "\n";
    std::cout << "sessions: " << stats.sessions << " (pool spawns: " << stats.pool_spawns
              << ", threads spawned: " << stats.threads_spawned << ")\n";
    std::cout << "fairness ratio: " << stats.fairness_ratio << "\n";
    for (const svc::TenantStats& t : stats.tenants) {
      std::cout << "  " << t.tenant << ": completed " << t.completed << ", steps "
                << t.steps << ", p50 " << t.p50_ms << " ms, p99 " << t.p99_ms << " ms\n";
    }
    std::cout << "standalone fnv: " << want_hex << "\n";
    std::cout << "all tenants match standalone: " << (all_match ? "yes" : "NO") << "\n";
  }
  return all_match ? 0 : 1;
}

/// Dynamic maximal matching under churn (docs/dynamic.md): seeded batched
/// insert/delete stream, incremental repair, per-batch verification —
/// with --oracle also against a recompute-from-scratch greedy run.  Exits
/// non-zero on ANY maximality violation, which is what makes it a CI
/// smoke: a repair bug cannot hide behind the summary text.
int cmd_churn(const std::vector<std::string>& args) {
  util::Flags flags(
      "churn: usage: churn --instance <spec> [--batches N>=0] [--ops-per-batch N>=0]"
      " [--seed S] [--insert-fraction PCT] [--engine sync|flat] [--threads N>=1]"
      " [--oracle] [--json]");
  RunSetup setup;
  setup.faults = false;
  setup.declare(flags);
  dyn::ChurnSpec churn_spec;
  double insert_pct = 50.0;
  bool oracle = false;
  flags.number("--batches", churn_spec.batches, 0)
      .number("--ops-per-batch", churn_spec.ops_per_batch, 0)
      .number("--seed", churn_spec.seed, 0)
      .number("--insert-fraction", insert_pct, 0.0)
      .flag("--oracle", oracle);
  flags.parse(args);
  churn_spec.insert_fraction = insert_pct / 100.0;
  const graph::EdgeColouredGraph g = setup.build("churn");
  const dyn::ChurnPlan plan = dyn::ChurnPlan::random(g, churn_spec);
  dyn::MatcherOptions mopts;
  mopts.engine = setup.engine;
  mopts.threads = setup.threads;
  dyn::DynamicMatcher matcher(g, mopts);
  plan.require_applies(g);

  int bad_batches = 0;
  for (std::size_t b = 0; b < plan.batches().size(); ++b) {
    matcher.apply(plan.batches()[b]);
    const verify::MatchingReport incremental = matcher.check();
    bool batch_ok = incremental.ok();
    if (oracle) {
      const std::vector<local::Colour> recomputed = matcher.recompute();
      const verify::MatchingReport oracle_report =
          verify::check_outputs(matcher.graph(), recomputed);
      batch_ok = batch_ok && oracle_report.ok();
      if (!oracle_report.ok()) {
        std::cerr << "churn: batch " << b << " ORACLE invalid:\n" << oracle_report.describe();
      }
    }
    if (!incremental.ok()) {
      std::cerr << "churn: batch " << b << " incremental matching invalid:\n"
                << incremental.describe();
    }
    if (!batch_ok) ++bad_batches;
  }
  const dyn::RepairStats& stats = matcher.stats();
  const std::size_t matched =
      verify::matched_edges(matcher.graph(), matcher.outputs()).size();
  if (setup.json) {
    std::cout << "{\"instance\":\"" << util::json_escape(setup.instance) << "\",\"engine\":\""
              << local::engine_kind_name(setup.engine) << "\",\"threads\":" << setup.threads
              << ",\"seed\":" << churn_spec.seed << ",\"batches\":" << stats.batches
              << ",\"inserts\":" << stats.inserts << ",\"deletes\":" << stats.deletes
              << ",\"repairs\":" << stats.repairs
              << ",\"touched_nodes\":" << stats.touched_nodes
              << ",\"recompute_avoided\":" << stats.recompute_avoided
              << ",\"matched_edges\":" << matched << ",\"final_edges\":"
              << matcher.graph().edge_count() << ",\"oracle\":" << (oracle ? "true" : "false")
              << ",\"valid\":" << (bad_batches == 0 ? "true" : "false") << "}\n";
  } else {
    std::cout << "instance: " << setup.instance << " (n=" << g.node_count() << ", k=" << g.k()
              << ", edges " << g.edge_count() << " -> " << matcher.graph().edge_count()
              << ")\n";
    std::cout << "churn: " << stats.batches << " batch(es), " << stats.inserts
              << " insert(s), " << stats.deletes << " delete(s), seed " << churn_spec.seed
              << "\n";
    std::cout << "repairs: " << stats.repairs << " (touched " << stats.touched_nodes
              << " node(s), recompute avoided " << stats.recompute_avoided
              << " node-visits)\n";
    std::cout << "matched edges: " << matched << "\n";
    if (bad_batches == 0) {
      std::cout << "verification: valid maximal matching after every batch"
                << (oracle ? " (oracle cross-checked)" : "") << "\n";
    } else {
      std::cout << "verification: " << bad_batches << " batch(es) INVALID\n";
    }
  }
  return bad_batches == 0 ? 0 : 1;
}

int cmd_adversary(const std::vector<std::string>& args) {
  util::Flags flags(
      "adversary: usage: adversary --k K>=3 --algorithm <spec> [--certificate-out <path>]"
      " [--pair-out <prefix>] [--no-memo] [--optimistic]");
  int k = 0;
  std::string algo_spec, cert_path, pair_prefix;
  bool no_memo = false;
  lower::AdversaryOptions options;
  flags.number("--k", k, 3).required()
      .option("--algorithm", algo_spec).required()
      .option("--certificate-out", cert_path)
      .option("--pair-out", pair_prefix)
      .flag("--no-memo", no_memo)
      .flag("--optimistic", options.optimistic);
  flags.parse(args);
  options.memoise = !no_memo;
  const auto algorithm = parse_algorithm(algo_spec);
  const lower::LowerBoundResult result = lower::run_adversary(k, *algorithm, options);
  std::cout << result.summary() << "\n";
  if (const auto* tp = std::get_if<lower::TightPair>(&result.outcome)) {
    if (!pair_prefix.empty()) {
      write_file(pair_prefix + ".U.txt", io::write_template(tp->u));
      write_file(pair_prefix + ".V.txt", io::write_template(tp->v));
      write_file(pair_prefix + ".U.dot", io::to_dot(tp->u, tp->d));
      write_file(pair_prefix + ".V.dot", io::to_dot(tp->v, tp->d));
      std::cout << "tight pair written to " << pair_prefix << ".{U,V}.{txt,dot}\n";
    }
  }
  if (const auto* cert = std::get_if<lower::Certificate>(&result.outcome)) {
    if (!cert_path.empty()) {
      write_file(cert_path, io::write_certificate(*cert));
      std::cout << "certificate written to " << cert_path << "\n";
    }
    return 1;  // refuted: report non-zero so scripts can branch
  }
  return result.tight() ? 0 : 3;
}

int cmd_views(const std::vector<std::string>& args) {
  util::Flags flags(
      "views: usage: views <k> <d> <rho> [--threads N>=1] [--max-views N>=1] [--json] [--orbits]");
  int k = 0, d = 0, rho = 0;
  int threads = 1;
  int max_views = 2'000'000;
  bool json = false;
  bool orbits = false;
  flags.positional(k)
      .positional(d)
      .positional(rho)
      .number("--threads", threads, 1)
      .number("--max-views", max_views, 1)
      .flag("--json", json)
      .flag("--orbits", orbits);
  flags.parse(args);
  // Refused before anything is enumerated: a catalogue the CSP cannot hold
  // would be built, paired and indexed only to be turned away by solve.
  if (k > nbhd::kMaxCspColours) {
    throw std::invalid_argument("views: k = " + std::to_string(k) + " exceeds the CSP's " +
                                std::to_string(nbhd::kMaxCspColours) + " colours");
  }

  long long views = 0, orbit_count = 0;
  std::size_t pair_count = 0;
  nbhd::CspResult result;
  nbhd::OrbitGenStats gen;
  bool census_only = false;
  // Steady-clock wall time of each phase; lap() reads the time since
  // `since` and restarts it for the next phase.
  using Clock = std::chrono::steady_clock;
  double enumerate_ms = 0, pairs_ms = 0, solve_ms = 0;
  const auto lap = [](Clock::time_point& since) {
    const Clock::time_point now = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - since).count();
    since = now;
    return ms;
  };
  if (orbits) {
    const nbhd::OrbitCensus census = nbhd::orbit_census(k, d, rho);
    views = static_cast<long long>(census.views);
    orbit_count = static_cast<long long>(census.orbits);
    if (census.orbits > static_cast<double>(max_views)) {
      // Orderly generation guards on reps generated, not raw views, so
      // only a catalogue whose *orbit* count exceeds the guard falls back
      // to the Burnside census alone.
      census_only = true;
    } else {
      Clock::time_point since = Clock::now();
      const nbhd::OrbitCatalogue cat = nbhd::enumerate_orbits(k, d, rho, max_views, &gen);
      enumerate_ms = lap(since);
      const std::vector<nbhd::CompatiblePair> pairs = nbhd::compatible_pairs(cat);
      pairs_ms = lap(since);
      result = nbhd::solve(cat, pairs, nbhd::CspOptions{.threads = threads});
      solve_ms = lap(since);
      pair_count = pairs.size();
    }
  } else {
    Clock::time_point since = Clock::now();
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(k, d, rho, max_views);
    enumerate_ms = lap(since);
    const std::vector<nbhd::CompatiblePair> pairs = nbhd::compatible_pairs(cat);
    pairs_ms = lap(since);
    result = nbhd::solve(cat, pairs, {.threads = threads});
    solve_ms = lap(since);
    views = cat.size();
    pair_count = pairs.size();
  }
  if (json) {
    std::cout << "{\"k\":" << k << ",\"d\":" << d << ",\"rho\":" << rho
              << ",\"views\":" << views;
    if (orbits) {
      std::cout << ",\"orbits\":" << orbit_count;
    }
    if (census_only) {
      std::cout << ",\"census_only\":true";
    } else {
      if (orbits) {
        std::cout << ",\"reps_generated\":" << gen.reps_generated
                  << ",\"raw_views_avoided\":" << views - gen.views_replayed;
      }
      std::cout << ",\"pairs\":" << pair_count
                << ",\"satisfiable\":" << (result.satisfiable ? "true" : "false")
                << ",\"csp_nodes\":" << result.nodes_explored
                << ",\"class_walks\":" << result.class_walks
                << ",\"enumerate_ms\":" << enumerate_ms << ",\"pairs_ms\":" << pairs_ms
                << ",\"solve_ms\":" << solve_ms;
    }
    std::cout << ",\"threads\":" << threads << "}\n";
  } else {
    std::cout << "catalogue: k=" << k << " d=" << d << " rho=" << rho << "\n";
    std::cout << "views: " << views << "\n";
    if (orbits) {
      std::cout << "colour-permutation orbits: " << orbit_count << " ("
                << static_cast<double>(views) / static_cast<double>(orbit_count)
                << "x reduction)\n";
    }
    if (census_only) {
      std::cout << "orbit catalogue exceeds max-views: Burnside census only (no CSP solve)\n";
    } else {
      if (orbits) {
        std::cout << "orderly generation: " << gen.reps_generated << " reps, "
                  << views - gen.views_replayed << " raw views never built\n";
      }
      std::cout << "compatible pairs: " << pair_count << "\n";
      std::cout << "labelling CSP: " << (result.satisfiable ? "SAT" : "UNSAT") << " ("
                << result.nodes_explored << " search nodes, " << result.class_walks
                << " class walks";
      if (threads > 1) std::cout << ", " << threads << " threads";
      std::cout << ")\n";
      std::cout << "time: enumerate " << enumerate_ms << " ms, pairs " << pairs_ms
                << " ms, solve " << solve_ms << " ms\n";
      std::cout << "meaning: " << (result.satisfiable ? "some" : "no") << " (rho-1) = "
                << rho - 1 << "-round algorithm exists on d-regular k-coloured instances\n";
    }
  }
  if (census_only) return 0;
  return result.satisfiable ? 0 : 1;
}

int cmd_lemma4(const std::vector<std::string>& args) {
  util::Flags flags("lemma4: usage: lemma4 --algorithm <spec>");
  std::string algo_spec;
  flags.option("--algorithm", algo_spec).required();
  flags.parse(args);
  const auto algorithm = parse_algorithm(algo_spec);
  const lower::Lemma4Result result = lower::run_lemma4(*algorithm);
  std::cout << result.summary << "\n";
  if (result.contradiction_found) {
    std::cout << "violated instance:\n" << io::write_graph(result.instance);
    return 1;
  }
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  util::Flags flags("check: usage: check --certificate <path> --algorithm <spec>");
  std::string cert_path, algo_spec;
  flags.option("--certificate", cert_path).required().option("--algorithm", algo_spec).required();
  flags.parse(args);
  const lower::Certificate cert = io::read_certificate(slurp(cert_path));
  const auto algorithm = parse_algorithm(algo_spec);
  lower::Evaluator eval(*algorithm);
  const bool holds = lower::certificate_holds(cert, eval);
  std::cout << "certificate: " << cert.describe() << "\n";
  std::cout << "re-check against " << algorithm->name() << ": " << (holds ? "HOLDS" : "does not hold")
            << "\n";
  return holds ? 0 : 1;
}

int cmd_export_dot(const std::vector<std::string>& args) {
  util::Flags flags("export-dot: usage: export-dot --instance <spec> [--out <path>]");
  std::string spec, out_path;
  flags.option("--instance", spec).required().option("--out", out_path);
  flags.parse(args);
  const std::string dot = io::to_dot(parse_instance(spec));
  if (out_path.empty()) {
    std::cout << dot;
  } else {
    write_file(out_path, dot);
    std::cout << "dot written to " << out_path << "\n";
  }
  return 0;
}

void usage() {
  std::cout << "usage: dmm_cli <greedy|resume|serve|churn|adversary|views|lemma4|check|"
               "export-dot> [options]\n"
               "see the header of tools/dmm_cli.cpp for specs\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "greedy") return run_greedy(args, false);
    if (command == "resume") return run_greedy(args, true);
    if (command == "serve") return cmd_serve(args);
    if (command == "churn") return cmd_churn(args);
    if (command == "adversary") return cmd_adversary(args);
    if (command == "views") return cmd_views(args);
    if (command == "lemma4") return cmd_lemma4(args);
    if (command == "check") return cmd_check(args);
    if (command == "export-dot") return cmd_export_dot(args);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  usage();
  return 2;
}
