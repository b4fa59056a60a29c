// serve — open loop on a fixed, seeded arrival schedule.  One op is one
// job through a single svc::MatchingService: at each arrival the generator
// builds the arrival's Jobs (copying the instance graph and fault plan
// into each) and hands them to submit_batch, and a job's latency runs
// from the arrival's due time until its future is seen ready.  Most
// arrivals carry one job; about once a second one carries a burst of 8
// from one tenant.  Four tenants draw jobs from a small pool of shared
// instances; tenants 0-2 submit greedy jobs (a fixed share of them under
// fault plans), and tenant 3 submits a few flooding jobs, whose unbounded
// messages are the only traffic that reaches the engine's spill arenas.
// Every result must be bit-identical to the same job's standalone
// run_sync result, computed in set-up.
//
// One thread generates the load and collects completions; the service
// adds its scheduler thread, which builds and steps every session alone
// (no shared pool: on a 4-vCPU machine a pool made the latency
// percentiles 2-3x noisier from run to run).  The process is pinned to
// one CPU (see main.cpp), so the generator blocks on futures rather than
// spinning: a spinning generator would take the CPU from the scheduler.
// A third thread, at idle priority, keeps that CPU busy between jobs.
//
// Stresses: per-job setup (graph copy, session build, CSR), scheduling
// and queueing, stepping.  Bypasses: dyn, nbhd, lower.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include "core/dmm.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace dmm;

/// One kind of job: an instance, a program and an optional fault plan,
/// with its standalone reference result.
struct JobKind {
  std::string name;
  std::shared_ptr<const graph::EdgeColouredGraph> graph;
  local::ProgramSource source;
  local::FaultPlan plan;
  int max_rounds = 0;
  int tenant = 0;
  int share = 0;  // jobs of this kind per kShareTotal
  local::RunResult reference;
};

/// A spin-wait hint to the CPU.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// While alive, spins on the CPU at SCHED_IDLE priority, so the CPU never
/// idles yet every other thread that wakes on it preempts the spinner.
class Heater {
 public:
  Heater()
      : thread_([this] {
          sched_param param{};
          if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
          while (heating_.load(std::memory_order_relaxed)) cpu_relax();
        }) {}
  Heater(const Heater&) = delete;
  Heater& operator=(const Heater&) = delete;
  ~Heater() {
    heating_ = false;
    thread_.join();
  }

 private:
  std::atomic<bool> heating_{true};
  std::thread thread_;
};

/// One arrival: a single job, or a burst of one tenant's jobs.
struct Arrival {
  int tenant = 0;
  std::vector<std::size_t> kinds;  // one per job
};

struct Pending {
  std::size_t kind = 0;
  std::int64_t op = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<local::RunResult> future;
};

constexpr int kTenants = 4;
constexpr int kShareTotal = 100;
constexpr double kRatePerS = 200.0;  // offered jobs per second
constexpr int kInstances = 5;
constexpr int kNodes = 5'500;
constexpr int kCleanShare = 15;  // per instance, of kShareTotal
constexpr int kFaultyShare = 4;  // per instance, of kShareTotal
constexpr std::size_t kBurst = 8;         // jobs in a burst: the service's inflight bound
constexpr std::size_t kBurstPeriod = 200;  // greedy arrivals per burst: ~1.1 s apart
constexpr std::chrono::microseconds kPoll{100};  // see wait_until in run()

class Serve final : public Workload {
 public:
  int setup_reps() const override { return 15; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    kinds_.clear();
    // Greedy pool: five shared instances of one size, each submitted clean
    // and under a fault plan, plus small flooding jobs.  One size, because
    // jobs of mixed sizes (3000-8000 nodes) left the heap in a different
    // state from run to run, and the CPU time per job, and p50 with it,
    // varied by 10-20% on the same inputs; at one size by 3-5%.
    for (int i = 0; i < kInstances; ++i) {
      std::shared_ptr<const graph::EdgeColouredGraph> g;
      {
        Span span(tracer, "graph.generate");
        Rng rng(mix_seed(seed, 1 + i));
        g = std::make_shared<const graph::EdgeColouredGraph>(
            graph::random_coloured_graph(kNodes, 6, 0.7, rng));
      }
      JobKind clean;
      clean.name = "greedy instance " + std::to_string(i);
      clean.graph = g;
      clean.source = algo::greedy_program_factory();
      clean.max_rounds = g->k() + 1;
      clean.share = kCleanShare;
      JobKind faulty = clean;
      faulty.name += " faults";
      {
        Span span(tracer, "setup.plan");
        local::FaultSpec spec;
        spec.crash_prob = 0.02;
        spec.horizon = 5;
        spec.min_down = 1;
        spec.max_down = 2;
        spec.permanent_prob = 0.25;
        spec.drop_prob = 0.01;
        spec.seed = mix_seed(seed, 20 + i);
        faulty.plan = local::FaultPlan::random(*g, spec);
      }
      faulty.max_rounds = std::max(g->k() + 1, faulty.plan.max_restart_round() + g->k() + 2);
      faulty.share = kFaultyShare;
      kinds_.push_back(std::move(clean));
      kinds_.push_back(std::move(faulty));
    }
    {
      JobKind flood;
      flood.name = "flooding n=300 k=3";
      {
        Span span(tracer, "graph.generate");
        Rng rng(mix_seed(seed, 30));
        flood.graph = std::make_shared<const graph::EdgeColouredGraph>(
            graph::random_coloured_graph(300, 3, 0.7, rng));
      }
      auto algorithm = std::make_shared<const algo::GreedyLocal>(3);
      flood.max_rounds = algorithm->running_time() + 2;
      flood.source = local::flooding_program_factory(algorithm, 3);
      flood.tenant = kTenants - 1;
      flood.share = 5;
      kinds_.push_back(std::move(flood));
    }
    Span span(tracer, "setup.reference");
    for (JobKind& kind : kinds_) {
      local::RunOptions options;
      options.max_rounds = kind.max_rounds;
      if (!kind.plan.empty()) options.faults.plan = &kind.plan;
      kind.reference = local::run_sync(*kind.graph, kind.source, options);
    }
    phase_index_ = 0;
  }

  Phase run(double seconds, Tracer* tracer) override {
    // The schedule: exactly rate × seconds jobs, the kinds in fixed
    // proportions and a seeded order.  Jobs arrive one at a time, except
    // that every kBurstPeriod-th greedy arrival is a burst of kBurst jobs
    // from one tenant, submitted together.  The bursts fix the phase's
    // largest set of live jobs, and so peak_rss_mb: with single arrivals
    // only, that was whatever pile-up a host stall happened to cause, and
    // peak RSS varied by up to a third on the same inputs.  Arrivals are
    // evenly spaced over the phase with a seeded jitter of up to a quarter
    // gap either way; bounded jitter keeps bursts, and with them the tail
    // latency, comparable across seeds.
    Rng rng(mix_seed(seed_, 1000 + phase_index_++));
    const auto jobs = static_cast<std::size_t>(std::llround(kRatePerS * seconds));
    std::vector<std::size_t> greedy;
    std::size_t flooding_kind = 0;
    std::size_t flooding = 0;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      const auto count = static_cast<std::size_t>(
          std::llround(static_cast<double>(jobs) * kinds_[k].share / kShareTotal));
      if (kinds_[k].tenant == 0) {
        greedy.insert(greedy.end(), count, k);
      } else {
        flooding_kind = k;
        flooding = count;
      }
    }
    std::shuffle(greedy.begin(), greedy.end(), rng.engine());
    std::vector<Arrival> arrivals;
    for (std::size_t g = 0, a = 0; g < greedy.size(); ++a) {
      const std::size_t n = std::min(a % kBurstPeriod == 0 ? kBurst : 1, greedy.size() - g);
      Arrival arrival;
      arrival.tenant = static_cast<int>(rng.index(kTenants - 1));  // greedy: tenants 0..2
      arrival.kinds.assign(greedy.begin() + static_cast<std::ptrdiff_t>(g),
                           greedy.begin() + static_cast<std::ptrdiff_t>(g + n));
      arrivals.push_back(std::move(arrival));
      g += n;
    }
    for (std::size_t f = 0; f < flooding; ++f) arrivals.push_back({kTenants - 1, {flooding_kind}});
    std::shuffle(arrivals.begin(), arrivals.end(), rng.engine());
    std::uniform_real_distribution<double> jitter(-0.25, 0.25);
    const double gap_s = seconds / static_cast<double>(arrivals.size());
    std::vector<double> arrival_s(arrivals.size());
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      arrival_s[j] = (static_cast<double>(j) + 0.5 + jitter(rng.engine())) * gap_s;
    }

    // Sleeping timers fire on time, not up to the kernel's default 50 µs
    // timer slack late: the generator's lateness is part of every job's
    // latency.
    prctl(PR_SET_TIMERSLACK, 1UL);
    // Keeps the CPU from going idle between jobs.  An idle vCPU is handed
    // back to the host, and on a busy host a job then started late and
    // cold: p50 rose by 10-40% from run to run.
    const Heater heater;
    svc::ServiceOptions options;
    options.inflight = 8;
    options.quantum = 4;
    options.threads = 1;
    svc::MatchingService service(options);
    const std::string names[kTenants] = {"tenant-0", "tenant-1", "tenant-2", "flood-3"};

    Phase phase;
    std::vector<Pending> pending;
    std::vector<double> late_ms;
    double time_sum_ns = 0.0;  // Σ arrivals' due → submitted + Σ jobs' sojourns
    std::size_t copies = 0;
    double own_sum_ns = 0.0;  // Σ the jobs' own init+send+receive
    double check_ns = 0.0;
    std::size_t backlog_max = 0;
    Clock::time_point last_ready;

    auto collect = [&]() {
      for (std::size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point ready = Clock::now();
        last_ready = ready;
        ++phase.attempted;
        local::RunResult result;
        bool ok = true;
        try {
          result = p.future.get();
        } catch (const std::exception& e) {
          ok = false;
          fail(phase, kinds_[p.kind].name + " job threw: " + e.what());
        }
        if (ok) {
          const double latency_ns = ns_between(p.due, ready);
          phase.latency_ms.push_back(latency_ns / 1e6);
          const double own_ns = result.init_ns + result.send_ns + result.receive_ns;
          own_sum_ns += own_ns;
          const double sojourn_ns = ns_between(p.submitted, ready);
          time_sum_ns += sojourn_ns;
          if (tracer != nullptr) {
            tracer->add("local.init", result.init_ns);
            tracer->add("local.send", result.send_ns);
            tracer->add("local.receive", result.receive_ns);
            tracer->add("svc.wait", sojourn_ns - own_ns);
            tracer->record("svc.session", p.op, p.submitted, ready, 2,
                           {{"init_ms", result.init_ns / 1e6},
                            {"send_ms", result.send_ns / 1e6},
                            {"receive_ms", result.receive_ns / 1e6},
                            {"wait_ms", (sojourn_ns - own_ns) / 1e6},
                            {"kind", static_cast<double>(p.kind)}});
            count_run(phase, result);
          }
          const Clock::time_point check_start = Clock::now();
          {
            Span check(tracer, "verify.check", p.op);
            if (!same_run(result, kinds_[p.kind].reference)) {
              fail(phase, kinds_[p.kind].name + " result differs from its standalone run");
            }
          }
          check_ns += ns_between(check_start, Clock::now());
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));  // keeps submit order
      }
    };

    // Blocks until the oldest outstanding job completes or `until`,
    // whichever is first, then collects.  That job's completion is seen
    // at once; with more than one job outstanding, one that overtook it
    // (rare: jobs mostly finish in order) is seen within kPoll.  With none
    // or one outstanding there is nothing to poll for, so the generator
    // sleeps through: polling every kPoll while idle woke it ~8 000 times
    // a second, and the wake-ups made p50 twice as sensitive to the
    // host's load.
    auto wait_until = [&](Clock::time_point until) {
      if (pending.empty()) {
        std::this_thread::sleep_until(until);
      } else if (pending.size() == 1) {
        pending.front().future.wait_until(until);
      } else {
        pending.front().future.wait_until(std::min(until, Clock::now() + kPoll));
      }
      collect();
    };

    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      const Arrival& arrival = arrivals[j];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(arrival_s[j]));
      while (Clock::now() < due) wait_until(due);
      late_ms.push_back(ns_between(due, Clock::now()) / 1e6);
      const std::int64_t first_op = op_;
      op_ += static_cast<std::int64_t>(arrival.kinds.size());
      std::vector<svc::Job> batch(arrival.kinds.size());
      {
        Span span(tracer, "graph.copy", first_op);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const JobKind& kind = kinds_[arrival.kinds[i]];
          batch[i].graph = *kind.graph;
          batch[i].source = kind.source;
          batch[i].max_rounds = kind.max_rounds;
          batch[i].faults = kind.plan;
        }
      }
      copies += batch.size();
      std::vector<std::future<local::RunResult>> futures;
      try {
        Span span(tracer, "svc.submit", first_op);
        futures = service.submit_batch(names[arrival.tenant], std::move(batch));
      } catch (const std::exception& e) {
        phase.attempted += static_cast<std::int64_t>(arrival.kinds.size());
        fail(phase, std::string("submit rejected: ") + e.what());
        continue;
      }
      const Clock::time_point submitted = Clock::now();
      time_sum_ns += ns_between(due, submitted);
      for (std::size_t i = 0; i < futures.size(); ++i) {
        Pending p;
        p.kind = arrival.kinds[i];
        p.op = first_op + static_cast<std::int64_t>(i);
        p.due = due;
        p.submitted = submitted;
        p.future = std::move(futures[i]);
        pending.push_back(std::move(p));
      }
      backlog_max = std::max(backlog_max, pending.size());
    }
    while (!pending.empty()) wait_until(Clock::now() + kPoll);

    phase.busy_ns = ns_between(t0, last_ready);
    // The traced split covers job time, not the phase wall (an open loop
    // is idle between arrivals): each arrival's due → submitted once (its
    // lateness, graph copies and submit), each job's sojourn, and the
    // checks the generator ran.
    phase.wall_ns = time_sum_ns + check_ns;
    if (tracer != nullptr) {
      const svc::ServiceStats stats = service.stats();
      double steps = 0;
      for (const svc::TenantStats& t : stats.tenants) steps += static_cast<double>(t.steps);
      phase.counters["svc.steps"] = steps;
      phase.counters["svc.fairness_ratio"] = stats.fairness_ratio;
      phase.counters["svc.pool_spawns"] = static_cast<double>(stats.pool_spawns);
      phase.counters["svc.backlog_max"] = static_cast<double>(backlog_max);
      // The scheduler thread's busy share: offered rate × mean job time.
      phase.counters["svc.utilization"] = phase.busy_ns > 0 ? own_sum_ns / phase.busy_ns : 0.0;
      phase.counters["loadgen.late_p99_ms"] = percentile(late_ms, 0.99);
      phase.counters["graph.copies"] = static_cast<double>(copies);
    }
    return phase;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<JobKind> kinds_;
  std::uint64_t phase_index_ = 0;
  std::int64_t op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve() { return std::make_unique<Serve>(); }

}  // namespace perfbench
