#include "local/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dmm::local {

namespace {

bool event_before(const FaultEvent& a, const FaultEvent& b) {
  if (a.round != b.round) return a.round < b.round;
  if (a.node != b.node) return a.node < b.node;
  // A restart sorts before a crash at the same (round, node), so a plan
  // that restarts and immediately re-crashes a node is well-defined.
  return a.up && !b.up;
}

/// Probabilities must lie in [0, 1]; written so that NaN fails too.
bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

// Value parsers for the spec grammar; parse_fault_spec reports their
// throws as bad values.  Each must consume the whole value: "0.5abc", "2x"
// and "3.7" (as an int) are malformed, not 0.5, 2 and 3.

void require_whole(const std::string& value, std::size_t used) {
  if (used != value.size()) throw std::invalid_argument(value);
}

double parse_double(const std::string& value) {
  std::size_t used = 0;
  const double parsed = std::stod(value, &used);
  require_whole(value, used);
  return parsed;
}

int parse_int(const std::string& value) {
  std::size_t used = 0;
  const int parsed = std::stoi(value, &used);
  require_whole(value, used);
  return parsed;
}

/// Digits only: std::stoull would wrap "-1" to 2⁶⁴ − 1.
std::uint64_t parse_seed(const std::string& value) {
  if (value.empty() || value[0] < '0' || value[0] > '9') throw std::invalid_argument(value);
  std::size_t used = 0;
  const std::uint64_t parsed = std::stoull(value, &used);
  require_whole(value, used);
  return parsed;
}

}  // namespace

void FaultPlan::add_crash(graph::NodeIndex node, int round, int down_rounds) {
  if (round < 1) throw std::invalid_argument("FaultPlan::add_crash: rounds start at 1");
  const bool permanent = down_rounds <= 0;
  if (!permanent && down_rounds > std::numeric_limits<int>::max() - round) {
    throw std::invalid_argument("FaultPlan::add_crash: the restart round exceeds INT_MAX");
  }
  events_.push_back({round, node, /*up=*/false, permanent});
  if (!permanent) events_.push_back({round + down_rounds, node, /*up=*/true, false});
  std::sort(events_.begin(), events_.end(), event_before);
}

void FaultPlan::set_drops(double drop_prob, std::uint64_t seed) {
  if (!is_probability(drop_prob)) {
    throw std::invalid_argument("FaultPlan::set_drops: probability must be in [0, 1]");
  }
  drop_prob_ = drop_prob;
  drop_seed_ = seed;
  has_drops_ = drop_prob > 0.0;
  // The hash is compared against p·2⁶⁴; p = 1 saturates (ldexp(1, 64)
  // does not fit a uint64_t).
  drop_threshold_ = drop_prob >= 1.0
                        ? std::numeric_limits<std::uint64_t>::max()
                        : static_cast<std::uint64_t>(std::ldexp(drop_prob, 64));
}

FaultPlan FaultPlan::random(const graph::EdgeColouredGraph& g, const FaultSpec& spec) {
  if (spec.horizon < 1) throw std::invalid_argument("FaultSpec: horizon must be >= 1");
  if (spec.min_down < 1 || spec.max_down < spec.min_down) {
    throw std::invalid_argument("FaultSpec: need 1 <= min_down <= max_down");
  }
  FaultPlan plan;
  Rng rng(spec.seed);
  // One sequential pass over the nodes: the plan is a pure function of
  // (graph size, spec), independent of how the engines later schedule it.
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    if (!rng.chance(spec.crash_prob)) continue;
    const int round = static_cast<int>(rng.uniform(1, spec.horizon));
    const int down = static_cast<int>(rng.uniform(spec.min_down, spec.max_down));
    const bool permanent = rng.chance(spec.permanent_prob);
    plan.add_crash(v, round, permanent ? 0 : down);
  }
  if (spec.drop_prob > 0.0) {
    plan.set_drops(spec.drop_prob, mix64(spec.seed + 0x9e3779b97f4a7c15ull));
  }
  return plan;
}

std::size_t FaultPlan::first_event_at(int round) const noexcept {
  const auto it = std::lower_bound(
      events_.begin(), events_.end(), round,
      [](const FaultEvent& e, int r) { return e.round < r; });
  return static_cast<std::size_t>(it - events_.begin());
}

bool FaultPlan::drops(int round, graph::NodeIndex sender, gk::Colour colour) const noexcept {
  if (!has_drops_) return false;
  // (round, sender, colour) packed into one word: sender and colour fill
  // the low 40 bits exactly (NodeIndex is 31 bits, Colour 8), the round
  // occupies the rest.  Wrap-around at astronomically large rounds only
  // changes *which* messages drop, never determinism.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(round)) << 40) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender)) << 8) ^
      static_cast<std::uint64_t>(colour);
  const std::uint64_t h = mix64(drop_seed_ ^ mix64(key));
  return h < drop_threshold_;
}

int FaultPlan::max_restart_round() const noexcept {
  int last = 0;
  for (const FaultEvent& e : events_) {
    if (e.up) last = std::max(last, e.round);
  }
  return last;
}

int FaultPlan::default_max_rounds(int k) const noexcept {
  return std::max(k + 1, max_restart_round() + k + 2);
}

void FaultPlan::require_fits(graph::NodeIndex node_count) const {
  for (const FaultEvent& e : events_) {
    if (e.node < 0 || e.node >= node_count) {
      throw std::invalid_argument("FaultPlan: event targets a node outside the graph");
    }
  }
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    const bool known = key == "crash" || key == "drop" || key == "perm" ||
                       key == "horizon" || key == "seed" || key == "down";
    if (!known) throw std::invalid_argument("fault spec: unknown key '" + key + "'");
    try {
      if (key == "crash") {
        spec.crash_prob = parse_double(value);
      } else if (key == "drop") {
        spec.drop_prob = parse_double(value);
      } else if (key == "perm") {
        spec.permanent_prob = parse_double(value);
      } else if (key == "horizon") {
        spec.horizon = parse_int(value);
      } else if (key == "seed") {
        spec.seed = parse_seed(value);
      } else {  // down: "down=2" or "down=2-5"
        const std::size_t dash = value.find('-');
        if (dash == std::string::npos) {
          spec.min_down = spec.max_down = parse_int(value);
        } else {
          spec.min_down = parse_int(value.substr(0, dash));
          spec.max_down = parse_int(value.substr(dash + 1));
        }
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("fault spec: bad value for '" + key + "': '" + value + "'");
    }
  }
  if (!is_probability(spec.crash_prob) || !is_probability(spec.permanent_prob) ||
      !is_probability(spec.drop_prob)) {
    throw std::invalid_argument("fault spec: probabilities must be in [0, 1]");
  }
  return spec;
}

}  // namespace dmm::local
