#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "local/flat_engine.hpp"
#include "local/runtime.hpp"

namespace dmm::svc {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

double nearest_rank_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // 1-based nearest rank ceil(q·N): the smallest element whose rank covers
  // a q-fraction of the sample.  Monotone in q, so p50 ≤ p99 always, and
  // never above the max (rank N at q = 1).
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = rank < 1.0 ? std::size_t{0} : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct MatchingService::Impl {
  /// A job that has been accepted but not yet completed.  Owns everything
  /// the session borrows (graph, program source, fault plan), held behind
  /// a unique_ptr so the addresses stay stable from queue to completion.
  struct Pending {
    Job job;
    std::promise<local::RunResult> promise;
    Clock::time_point submitted;
  };

  struct Active {
    std::string tenant;
    std::unique_ptr<Pending> pending;
    // Declared after `pending`: the session borrows the job, so it must be
    // destroyed first (members die in reverse declaration order).
    std::unique_ptr<local::Session> session;
    std::exception_ptr error;
  };

  struct Tenant {
    std::deque<std::unique_ptr<Pending>> queue;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t steps = 0;
    std::vector<double> latencies_ms;
  };

  explicit Impl(const ServiceOptions& options) : opts(options), runtime(opts.threads) {
    if (opts.inflight < 1) opts.inflight = 1;
    if (opts.quantum < 1) opts.quantum = 1;
    scheduler = std::thread([this] { scheduler_main(); });
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    scheduler.join();
  }

  // ---- scheduler thread ------------------------------------------------

  void scheduler_main() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return stop || queued > 0 || !active.empty(); });
      if (queued == 0 && active.empty()) {
        if (stop) return;
        continue;
      }
      admit(lock);
      pass(lock);
    }
  }

  /// Admission: pull queued jobs into the active set, round-robin across
  /// tenants (so a tenant that batched a thousand submissions cannot
  /// monopolise the in-flight slots), until the bound is reached.  Session
  /// construction (program build + init — the expensive part) happens with
  /// the lock dropped.
  void admit(std::unique_lock<std::mutex>& lock) {
    while (static_cast<int>(active.size()) < opts.inflight && queued > 0) {
      auto it = tenants.upper_bound(admit_cursor);
      if (it == tenants.end()) it = tenants.begin();
      while (it->second.queue.empty()) {
        ++it;
        if (it == tenants.end()) it = tenants.begin();
      }
      admit_cursor = it->first;
      auto entry = std::make_unique<Active>();
      entry->tenant = it->first;
      entry->pending = std::move(it->second.queue.front());
      it->second.queue.pop_front();
      --queued;

      lock.unlock();
      const Job& job = entry->pending->job;
      local::RunOptions ropts;
      ropts.max_rounds = job.max_rounds;
      if (!job.faults.empty()) ropts.faults.plan = &entry->pending->job.faults;
      try {
        // The shared runtime, not FlatEngineOptions::threads, sets a flat
        // session's workers.
        entry->session = local::make_session(job.engine, entry->pending->job.graph,
                                             entry->pending->job.source, ropts, {}, &runtime);
      } catch (...) {
        entry->error = std::current_exception();
      }
      lock.lock();

      active.push_back(std::move(entry));
      // Zero-round sessions (and failed constructions) complete without
      // ever costing scheduling credit.
      if (active.back()->error || active.back()->session->done()) {
        complete(active.size() - 1, lock);
      }
    }
  }

  /// One deficit-round-robin pass: tenants with admitted sessions, in
  /// sorted-name order, each get up to `quantum` round steps, spread
  /// round-robin over their own sessions.  Unused credit is forfeited —
  /// never banked — which is what bounds cross-tenant stalls at
  /// quantum × (tenants − 1) foreign steps (see service.hpp).
  void pass(std::unique_lock<std::mutex>& lock) {
    std::vector<std::string> order;
    order.reserve(active.size());
    for (const auto& a : active) order.push_back(a->tenant);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());

    for (const std::string& tenant : order) {
      int credit = opts.quantum;
      bool progressed = true;
      while (credit > 0 && progressed) {
        progressed = false;
        std::size_t i = 0;
        while (i < active.size() && credit > 0) {
          if (active[i]->tenant != tenant) {
            ++i;
            continue;
          }
          Active* a = active[i].get();
          --credit;
          ++tenants[tenant].steps;
          progressed = true;
          lock.unlock();
          if (opts.step_observer) opts.step_observer(tenant);
          try {
            a->session->step();
          } catch (...) {
            a->error = std::current_exception();
          }
          lock.lock();
          if (a->error || a->session->done()) {
            complete(i, lock);  // erases active[i]; do not advance i
          } else {
            ++i;
          }
        }
      }
    }
  }

  /// Finishes active[i]: records latency and tenant stats, then delivers
  /// the RunResult (or the session's exception) through the promise with
  /// the lock dropped.
  void complete(std::size_t i, std::unique_lock<std::mutex>& lock) {
    std::unique_ptr<Active> a = std::move(active[i]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    Tenant& t = tenants[a->tenant];
    ++t.completed;
    ++completed_total;
    t.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - a->pending->submitted)
            .count());
    lock.unlock();
    if (a->error) {
      a->pending->promise.set_exception(a->error);
    } else {
      try {
        a->pending->promise.set_value(a->session->result());
      } catch (...) {
        a->pending->promise.set_exception(std::current_exception());
      }
    }
    a.reset();  // session (borrower) dies before pending (owner)
    lock.lock();
  }

  // ---- shared state ----------------------------------------------------

  ServiceOptions opts;
  local::Runtime runtime;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, Tenant> tenants;
  std::vector<std::unique_ptr<Active>> active;  // scheduler-thread only
  std::string admit_cursor;                     // last tenant admitted from
  std::size_t queued = 0;
  std::uint64_t completed_total = 0;
  bool stop = false;

  std::thread scheduler;
};

MatchingService::MatchingService(const ServiceOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

MatchingService::~MatchingService() = default;

namespace {

void validate(const Job& job, const ServiceOptions& opts) {
  if (job.max_rounds <= 0) {
    throw std::invalid_argument("MatchingService::submit: Job.max_rounds must be positive");
  }
  if (opts.max_nodes > 0 &&
      static_cast<std::size_t>(job.graph.node_count()) > opts.max_nodes) {
    throw std::invalid_argument(
        "MatchingService::submit: instance exceeds the service's max_nodes");
  }
}

}  // namespace

std::future<local::RunResult> MatchingService::submit(const std::string& tenant, Job job) {
  std::vector<Job> one;
  one.push_back(std::move(job));
  return std::move(submit_batch(tenant, std::move(one)).front());
}

std::vector<std::future<local::RunResult>> MatchingService::submit_batch(
    const std::string& tenant, std::vector<Job> jobs) {
  // Validate the whole batch before enqueuing any of it, so a rejection
  // cannot leave a half-admitted batch behind.
  for (const Job& job : jobs) validate(job, impl_->opts);
  std::vector<std::future<local::RunResult>> futures;
  futures.reserve(jobs.size());
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stop) {
      throw std::runtime_error("MatchingService::submit: service is shut down");
    }
    Impl::Tenant& t = impl_->tenants[tenant];
    for (Job& job : jobs) {
      auto pending = std::make_unique<Impl::Pending>();
      pending->job = std::move(job);
      pending->submitted = Clock::now();
      futures.push_back(pending->promise.get_future());
      ++t.submitted;
      t.queue.push_back(std::move(pending));
      ++impl_->queued;
    }
  }
  impl_->cv.notify_one();
  return futures;
}

void MatchingService::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
}

ServiceStats MatchingService::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  ServiceStats s;
  s.sessions = impl_->completed_total;
  s.pool_spawns = impl_->runtime.pool_spawns();
  s.threads_spawned = impl_->runtime.threads_spawned();
  double min_mean = 0.0;
  double max_mean = 0.0;
  int measured = 0;
  for (const auto& [name, t] : impl_->tenants) {
    TenantStats out;
    out.tenant = name;
    out.submitted = t.submitted;
    out.completed = t.completed;
    out.steps = t.steps;
    if (!t.latencies_ms.empty()) {
      std::vector<double> sorted = t.latencies_ms;
      std::sort(sorted.begin(), sorted.end());
      out.p50_ms = nearest_rank_percentile(sorted, 0.50);
      out.p99_ms = nearest_rank_percentile(sorted, 0.99);
      out.mean_ms = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                    static_cast<double>(sorted.size());
      if (measured == 0) {
        min_mean = max_mean = out.mean_ms;
      } else {
        min_mean = std::min(min_mean, out.mean_ms);
        max_mean = std::max(max_mean, out.mean_ms);
      }
      ++measured;
    }
    s.tenants.push_back(std::move(out));
  }
  if (measured >= 2 && min_mean > 0.0) s.fairness_ratio = max_mean / min_mean;
  return s;
}

}  // namespace dmm::svc
