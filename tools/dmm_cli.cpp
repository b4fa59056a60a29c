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
//   dmm_cli adversary  --k <k> --algorithm <spec> [--certificate-out <path>] [--no-memo]
//                      [--optimistic] [--threads <n>] [--orbits]
//   dmm_cli views      <k> <d> <rho> [--threads <n>] [--json] [--max-views <n>] [--orbits]
//   dmm_cli lemma4     --algorithm <spec>
//   dmm_cli check      --certificate <path> --algorithm <spec>
//   dmm_cli export-dot --instance <spec> [--out <path>]
//
// `views` runs the Remark-2 / Linial pipeline end to end — catalogue size,
// compatible-pair count, CSP verdict, and the wall time of its enumerate,
// pairs and solve phases — so the UNSAT frontier is
// reproducible without building the bench binaries.  `--orbits` switches
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
//
// `serve` drives the multi-tenant front-end (svc::MatchingService,
// docs/service.md): it submits --jobs-per-tenant copies of the greedy job
// per tenant, interleaves all sessions on one shared Runtime, and diffs
// every tenant's outputs_fnv against the same job run standalone — the CI
// serve-smoke step asserts `all_match` and exits non-zero on divergence.
#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>

#include "core/dmm.hpp"

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

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The whole token as a T, or nothing: "3x", "x", "" and a value out of
/// T's range fail, and so does "2.5" for an integer T.  A floating-point T
/// must also be finite.
template <class T>
std::optional<T> whole(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// The number after `name` in `args` (`fallback` when the flag is absent):
/// a whole T of at least `min`.  A missing or malformed value, or one
/// below `min`, prints `usage` and exits 2.
template <class T>
T number_option(const std::vector<std::string>& args, const std::string& name, T fallback,
                T min, const std::string& usage) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != name) continue;
    const std::optional<T> value = i + 1 < args.size() ? whole<T>(args[i + 1]) : std::nullopt;
    if (!value || *value < min) fail(usage);
    return *value;
  }
  return fallback;
}

const char* const kInstanceUsage =
    "instance spec: chain:<k> | figure1 | hypercube:<d> | bipartite:<d> | "
    "random:<n>:<k>:<pct>:<seed> | star:<leaves> | skewed:<hubs>:<deg>:<first> | file:<path>";

/// The numeric fields of an instance or algorithm spec, each a whole T;
/// anything else prints `usage` and exits 2.
template <class T>
T spec_number(const std::string& token, const std::string& usage) {
  const std::optional<T> value = whole<T>(token);
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

std::string option(const std::vector<std::string>& args, const std::string& name,
                   const std::string& fallback = "") {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return args[i + 1];
  }
  return fallback;
}

bool flag(const std::vector<std::string>& args, const std::string& name) {
  for (const std::string& a : args) {
    if (a == name) return true;
  }
  return false;
}

/// 64-bit FNV-1a over a sequence of values, each fed as 8 little-endian
/// bytes.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// FNV-1a over the per-node outputs and halt rounds — the one-line
/// fingerprint the CI fault-recovery step diffs between an interrupted
/// and an uninterrupted run.
std::uint64_t outputs_fnv(const local::RunResult& run) {
  Fnv1a f;
  for (const local::Colour c : run.outputs) f.mix(c);
  for (const int r : run.halt_round) f.mix(static_cast<std::uint32_t>(r));
  return f.h;
}

/// FNV-1a over the per-node halt rounds alone.
std::uint64_t halt_rounds_fnv(const local::RunResult& run) {
  Fnv1a f;
  for (const int r : run.halt_round) f.mix(static_cast<std::uint32_t>(r));
  return f.h;
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

/// Shared body of `greedy` and `resume <path>`: run greedy on the chosen
/// engine with optional fault injection and checkpointing.
int run_greedy(const std::vector<std::string>& args, const std::string& resume_path) {
  const char* cmd = resume_path.empty() ? "greedy" : "resume";
  const std::string usage =
      std::string(cmd) + ": usage: " +
      (resume_path.empty() ? "greedy" : "resume <checkpoint-path>") +
      " --instance <spec> [--engine sync|flat] [--threads N>=1] [--chunk-slots N>=0]"
      " [--no-steal] [--faults <spec>] [--checkpoint <path>] [--checkpoint-every N>=1]"
      " [--max-rounds N>=1] [--round-sleep-ms MS>=0] [--json]";
  const std::string spec = option(args, "--instance");
  if (spec.empty()) fail(std::string(cmd) + ": --instance required");
  const std::string engine_spec = option(args, "--engine", "sync");
  const auto engine = local::parse_engine_kind(engine_spec);
  if (!engine) fail(std::string(cmd) + ": unknown engine '" + engine_spec + "' (sync|flat)");
  const int threads = number_option(args, "--threads", 1, 1, usage);
  if (threads > 1 && *engine != local::EngineKind::kFlat) {
    fail(std::string(cmd) + ": --threads requires --engine flat");
  }
  // Scheduling knobs of the flat engine's persistent pool (results are
  // identical for every setting; these tune throughput on skewed graphs).
  const auto chunk_slots = number_option<std::int64_t>(args, "--chunk-slots", 0, 0, usage);
  const bool no_steal = flag(args, "--no-steal");
  if ((chunk_slots > 0 || no_steal) && *engine != local::EngineKind::kFlat) {
    fail(std::string(cmd) + ": --chunk-slots/--no-steal require --engine flat");
  }
  const graph::EdgeColouredGraph g = parse_instance(spec);

  // Fault injection: the plan is seeded and schedule-independent, so the
  // same --faults spec names the same plan on both engines and across a
  // kill/resume boundary.
  local::FaultPlan plan;
  const std::string fault_spec = option(args, "--faults");
  if (!fault_spec.empty()) {
    plan = local::FaultPlan::random(g, local::parse_fault_spec(fault_spec));
  }
  const local::FaultOptions faults{&plan};

  // A restarted node still has to finish its protocol, so faulty runs get
  // headroom past the last restart round by default.
  const int max_rounds = number_option(
      args, "--max-rounds", std::max(g.k() + 1, plan.max_restart_round() + g.k() + 2), 1, usage);

  local::CheckpointOptions checkpoint;
  const std::string ckpt_path = option(args, "--checkpoint", resume_path);
  const int sleep_ms = number_option(args, "--round-sleep-ms", 0, 0, usage);
  if (!ckpt_path.empty()) {
    checkpoint.every = number_option(args, "--checkpoint-every", 1, 1, usage);
    checkpoint.sink = [&](const local::EngineCheckpoint& ck) {
      if (sleep_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      write_checkpoint_file(ck, ckpt_path);
    };
  } else if (sleep_ms > 0) {
    fail(std::string(cmd) + ": --round-sleep-ms requires --checkpoint");
  }

  local::EngineCheckpoint restored;
  if (!resume_path.empty()) {
    std::ifstream in(resume_path, std::ios::binary);
    if (!in) fail("resume: cannot read " + resume_path);
    restored = local::EngineCheckpoint::read(in);
    restored.require_matches(g);  // a wrong --instance fails here, loudly
    checkpoint.resume = &restored;
  }

  local::RunResult run;
  if (*engine == local::EngineKind::kFlat) {
    local::FlatEngineOptions options;
    options.threads = threads;
    options.chunk_slots = static_cast<std::size_t>(chunk_slots);
    options.steal = !no_steal;
    run = local::run_flat(g, algo::greedy_program_factory(), {max_rounds, faults, checkpoint},
                          options);
  } else {
    run = local::run_sync(g, algo::greedy_program_factory(), {max_rounds, faults, checkpoint});
  }
  const verify::MatchingReport report = verify::check_outputs(g, run.outputs);
  const std::size_t matched = verify::matched_edges(g, run.outputs).size();
  if (flag(args, "--json")) {
    std::cout << "{\"instance\":\"" << spec << "\",\"engine\":\""
              << local::engine_kind_name(*engine) << "\",\"threads\":" << threads
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
    std::cout << "instance: " << spec << " (n=" << g.node_count() << ", k=" << g.k() << ")\n";
    std::cout << "engine: " << local::engine_kind_name(*engine);
    if (threads > 1) std::cout << " (threads=" << threads << ")";
    std::cout << "\n";
    if (!resume_path.empty()) {
      std::cout << "resumed: " << resume_path << " (rounds 1.." << restored.round
                << " already complete)\n";
    }
    std::cout << "rounds: " << run.rounds << " (bound k-1 = " << g.k() - 1 << ")\n";
    if (!plan.empty()) {
      std::cout << "faults: " << run.crashes << " crash(es), " << run.restarts
                << " restart(s), " << run.messages_dropped << " message(s) dropped\n";
    }
    std::cout << "matched edges: " << matched << "\n";
    std::cout << "max message: " << run.max_message_bytes << " byte(s)\n";
    std::cout << "verification: " << report.describe() << "\n";
  }
  // Crashed nodes legitimately break the matching at their edges, so a
  // faulty run reports the verdict but does not fail on it.
  if (!plan.empty()) return 0;
  return report.ok() ? 0 : 1;
}

int cmd_greedy(const std::vector<std::string>& args) { return run_greedy(args, ""); }

int cmd_resume(const std::vector<std::string>& args) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    fail("resume: usage: resume <checkpoint-path> --instance <spec> [greedy options]");
  }
  return run_greedy({args.begin() + 1, args.end()}, args[0]);
}

/// Multi-tenant front-end driver: N tenants × J greedy jobs through one
/// MatchingService, every result fingerprinted against the standalone run.
int cmd_serve(const std::vector<std::string>& args) {
  const std::string usage =
      "serve: usage: serve [--tenants N>=1] [--jobs-per-tenant N>=1] [--inflight N>=1]"
      " [--quantum N>=1] [--threads N>=1] [--engine sync|flat] [--instance <spec>]"
      " [--faults <spec>] [--max-rounds N>=1] [--json]";
  const int tenants = number_option(args, "--tenants", 3, 1, usage);
  const int jobs_per_tenant = number_option(args, "--jobs-per-tenant", 4, 1, usage);
  const std::string engine_spec = option(args, "--engine", "flat");
  const auto engine = local::parse_engine_kind(engine_spec);
  if (!engine) fail("serve: unknown engine '" + engine_spec + "' (sync|flat)");
  const std::string spec = option(args, "--instance", "random:600:4:70:1");
  const graph::EdgeColouredGraph g = parse_instance(spec);

  local::FaultPlan plan;
  const std::string fault_spec = option(args, "--faults");
  if (!fault_spec.empty()) {
    plan = local::FaultPlan::random(g, local::parse_fault_spec(fault_spec));
  }
  const int max_rounds = number_option(
      args, "--max-rounds", std::max(g.k() + 1, plan.max_restart_round() + g.k() + 2), 1, usage);

  // The oracle: the same job run standalone (closed-loop, private engine).
  local::RunOptions ropts;
  ropts.max_rounds = max_rounds;
  if (!plan.empty()) ropts.faults.plan = &plan;
  const local::RunResult standalone =
      local::run(*engine, g, algo::greedy_program_factory(), ropts);
  const std::uint64_t want = outputs_fnv(standalone);

  svc::ServiceOptions opts;
  opts.inflight = number_option(args, "--inflight", 8, 1, usage);
  opts.quantum = number_option(args, "--quantum", 4, 1, usage);
  opts.threads = number_option(args, "--threads", 2, 1, usage);
  svc::MatchingService service(opts);

  std::vector<std::vector<std::future<local::RunResult>>> futures(
      static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    std::vector<svc::Job> jobs(static_cast<std::size_t>(jobs_per_tenant));
    for (svc::Job& job : jobs) {
      job.graph = g;
      job.source = algo::greedy_program_factory();
      job.max_rounds = max_rounds;
      job.engine = *engine;
      job.faults = plan;
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
  if (flag(args, "--json")) {
    std::cout << "{\"instance\":\"" << spec << "\",\"engine\":\""
              << local::engine_kind_name(*engine) << "\",\"tenants\":" << tenants
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
    std::cout << "instance: " << spec << " (n=" << g.node_count() << ", k=" << g.k()
              << ")\n";
    std::cout << "service: " << tenants << " tenant(s) x " << jobs_per_tenant
              << " job(s), engine " << local::engine_kind_name(*engine) << ", inflight "
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
  const std::string usage =
      "churn: usage: churn --instance <spec> [--batches N>=0] [--ops-per-batch N>=0]"
      " [--seed S] [--insert-fraction PCT] [--engine sync|flat] [--threads N>=1]"
      " [--oracle] [--json]";
  const std::string spec = option(args, "--instance");
  if (spec.empty()) fail("churn: --instance required");
  const std::string engine_spec = option(args, "--engine", "sync");
  const auto engine = local::parse_engine_kind(engine_spec);
  if (!engine) fail("churn: unknown engine '" + engine_spec + "' (sync|flat)");
  const int threads = number_option(args, "--threads", 1, 1, usage);
  if (threads > 1 && *engine != local::EngineKind::kFlat) {
    fail("churn: --threads requires --engine flat");
  }
  dyn::ChurnSpec churn_spec;
  churn_spec.batches = number_option(args, "--batches", 8, 0, usage);
  churn_spec.ops_per_batch = number_option(args, "--ops-per-batch", 16, 0, usage);
  churn_spec.seed = number_option<std::uint64_t>(args, "--seed", 0, 0, usage);
  churn_spec.insert_fraction =
      number_option(args, "--insert-fraction", 50.0, 0.0, usage) / 100.0;
  const bool oracle = flag(args, "--oracle");

  const graph::EdgeColouredGraph g = parse_instance(spec);
  const dyn::ChurnPlan plan = dyn::ChurnPlan::random(g, churn_spec);
  dyn::MatcherOptions mopts;
  mopts.engine = *engine;
  mopts.threads = threads;
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
  if (flag(args, "--json")) {
    std::cout << "{\"instance\":\"" << spec << "\",\"engine\":\""
              << local::engine_kind_name(*engine) << "\",\"threads\":" << threads
              << ",\"seed\":" << churn_spec.seed << ",\"batches\":" << stats.batches
              << ",\"inserts\":" << stats.inserts << ",\"deletes\":" << stats.deletes
              << ",\"repairs\":" << stats.repairs
              << ",\"touched_nodes\":" << stats.touched_nodes
              << ",\"recompute_avoided\":" << stats.recompute_avoided
              << ",\"matched_edges\":" << matched << ",\"final_edges\":"
              << matcher.graph().edge_count() << ",\"oracle\":" << (oracle ? "true" : "false")
              << ",\"valid\":" << (bad_batches == 0 ? "true" : "false") << "}\n";
  } else {
    std::cout << "instance: " << spec << " (n=" << g.node_count() << ", k=" << g.k()
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
  const std::string usage =
      "adversary: usage: adversary --k K>=3 --algorithm <spec> [--certificate-out <path>]"
      " [--pair-out <prefix>] [--no-memo] [--optimistic] [--threads N>=1] [--orbits]";
  const int k = number_option(args, "--k", 0, 3, usage);
  const std::string algo_spec = option(args, "--algorithm");
  if (k < 3 || algo_spec.empty()) fail(usage);
  const auto algorithm = parse_algorithm(algo_spec);
  lower::AdversaryOptions options;
  options.memoise = !flag(args, "--no-memo");
  options.optimistic = flag(args, "--optimistic");
  options.threads = number_option(args, "--threads", 1, 1, usage);
  options.orbits = flag(args, "--orbits");
  const lower::LowerBoundResult result = lower::run_adversary(k, *algorithm, options);
  std::cout << result.summary() << "\n";
  if (const auto* tp = std::get_if<lower::TightPair>(&result.outcome)) {
    const std::string pair_prefix = option(args, "--pair-out");
    if (!pair_prefix.empty()) {
      std::ofstream(pair_prefix + ".U.txt") << io::write_template(tp->u);
      std::ofstream(pair_prefix + ".V.txt") << io::write_template(tp->v);
      std::ofstream(pair_prefix + ".U.dot") << io::to_dot(tp->u, tp->d);
      std::ofstream(pair_prefix + ".V.dot") << io::to_dot(tp->v, tp->d);
      std::cout << "tight pair written to " << pair_prefix << ".{U,V}.{txt,dot}\n";
    }
  }
  if (const auto* cert = std::get_if<lower::Certificate>(&result.outcome)) {
    const std::string out_path = option(args, "--certificate-out");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << io::write_certificate(*cert);
      std::cout << "certificate written to " << out_path << "\n";
    }
    return 1;  // refuted: report non-zero so scripts can branch
  }
  return result.tight() ? 0 : 3;
}

int cmd_views(const std::vector<std::string>& args) {
  // Positional k d rho and the flags in any order; every number is a whole
  // integer token and --threads / --max-views are at least 1.
  const std::string usage =
      "views: usage: views <k> <d> <rho> [--threads N>=1] [--max-views N>=1] [--json] [--orbits]";
  std::vector<int> positional;
  int threads = 1;
  int max_views = 2'000'000;
  bool json = false;
  bool orbits = false;
  // The value after args[i], which must be a whole integer >= 1.
  const auto positive_after = [&](std::size_t& i) {
    const std::optional<int> value = ++i < args.size() ? whole<int>(args[i]) : std::nullopt;
    if (!value || *value < 1) fail(usage);
    return *value;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--orbits") {
      orbits = true;
    } else if (args[i] == "--threads") {
      threads = positive_after(i);
    } else if (args[i] == "--max-views") {
      max_views = positive_after(i);
    } else if (const std::optional<int> value = whole<int>(args[i])) {
      positional.push_back(*value);
    } else {
      fail(usage);
    }
  }
  if (positional.size() != 3) fail(usage);
  const int k = positional[0], d = positional[1], rho = positional[2];

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
                << result.nodes_explored << " search nodes";
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
  const std::string algo_spec = option(args, "--algorithm");
  if (algo_spec.empty()) fail("lemma4: --algorithm required");
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
  const std::string cert_path = option(args, "--certificate");
  const std::string algo_spec = option(args, "--algorithm");
  if (cert_path.empty() || algo_spec.empty()) fail("check: --certificate and --algorithm required");
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
  const std::string spec = option(args, "--instance");
  if (spec.empty()) fail("export-dot: --instance required");
  const graph::EdgeColouredGraph g = parse_instance(spec);
  const std::string dot = io::to_dot(g);
  const std::string out_path = option(args, "--out");
  if (out_path.empty()) {
    std::cout << dot;
  } else {
    std::ofstream out(out_path);
    out << dot;
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
    if (command == "greedy") return cmd_greedy(args);
    if (command == "resume") return cmd_resume(args);
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
