#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fail(Phase& phase, const std::string& what) {
  ++phase.failed;
  if (phase.errors.size() < 5) phase.errors.push_back(what);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

bool same_run(const dmm::local::RunResult& a, const dmm::local::RunResult& b) {
  return a.outputs == b.outputs && a.halt_round == b.halt_round && a.rounds == b.rounds &&
         a.max_message_bytes == b.max_message_bytes &&
         a.total_message_bytes == b.total_message_bytes && a.messages_sent == b.messages_sent &&
         a.crashes == b.crashes && a.restarts == b.restarts &&
         a.messages_dropped == b.messages_dropped;
}

void count_run(Phase& phase, const dmm::local::RunResult& r) {
  double node_rounds = 0;
  for (const int h : r.halt_round) node_rounds += std::max(h, 0);
  phase.counters["local.node_rounds"] += node_rounds;
  phase.counters["local.messages"] += static_cast<double>(r.messages_sent);
  phase.counters["local.message_bytes"] += static_cast<double>(r.total_message_bytes);
  phase.counters["local.fault_events"] +=
      static_cast<double>(r.crashes + r.restarts + r.messages_dropped);
  phase.counters["local.threads_spawned"] += static_cast<double>(r.threads_spawned);
}

}  // namespace perfbench
