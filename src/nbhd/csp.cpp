#include "nbhd/csp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

namespace dmm::nbhd {

namespace {

bool consistent(const CompatiblePair& pair, Colour out_a, Colour out_b) {
  // (M2): matched along the shared edge iff both say so.
  if ((out_a == pair.colour) != (out_b == pair.colour)) return false;
  // (M3): not both unmatched.
  if (out_a == gk::kNoColour && out_b == gk::kNoColour) return false;
  return true;
}

/// Domains as bitsets: bit 0 is ⊥, bit c is colour c.  d+1 values at most,
/// so every domain operation is a handful of mask instructions.
using Mask = std::uint32_t;

inline int domain_size(Mask m) { return std::popcount(m); }

constexpr std::int32_t kNoClass = BicliqueIndex::kNoClass;

/// Builds without NDEBUG, and sanitizer builds (CMakeLists.txt), walk every
/// class a guard lets the search skip and throw std::logic_error if that
/// walk would have pruned a domain or met a conflict.
#if !defined(NDEBUG) || defined(DMM_CONTRACT_CHECKS)
constexpr bool kCheckGuards = true;
#else
constexpr bool kCheckGuards = false;
#endif

/// The shared, read-only half of the problem: the catalogue's class index
/// and the domains after the initial arc-consistency pass.
struct Problem {
  const BicliqueIndex& index;
  int n = 0;
  std::vector<Mask> base_domains;
  bool wiped_out = false;  // arc consistency emptied a domain: UNSAT, no search
};

/// What a partner across a c-edge may still take once its neighbour holds
/// `value`: c forces c; any other value bans c, and ⊥ bans ⊥ too (M3).
inline Mask partner_values(Colour value, Colour c) {
  const Mask cbit = Mask{1} << c;
  if (value == c) return cbit;
  return value == gk::kNoColour ? ~(cbit | Mask{1}) : ~cbit;
}

/// Per class of colour c: how many members' current domains lack c, lie
/// within {c}, and lie within {c, ⊥}.
struct ClassCounts {
  std::int32_t lacking = 0;
  std::int32_t within_c = 0;
  std::int32_t within_c_bot = 0;

  ClassCounts& operator+=(const ClassCounts& o) {
    lacking += o.lacking;
    within_c += o.within_c;
    within_c_bot += o.within_c_bot;
    return *this;
  }
  ClassCounts& operator-=(const ClassCounts& o) {
    lacking -= o.lacking;
    within_c -= o.within_c;
    within_c_bot -= o.within_c_bot;
    return *this;
  }
};

/// One member's share of its class's counts.
inline ClassCounts share(Mask dom, Colour c) {
  const Mask cbit = Mask{1} << c;
  return {(dom & cbit) == 0, (dom & ~cbit) == 0, (dom & ~(cbit | Mask{1})) == 0};
}

/// The values of x's domain that every partner supports.  Across one
/// c-arc to y the supports are: c iff c ∈ dom(y); a colour v ∉ {c, ⊥} iff
/// dom(y) has a value ≠ c; ⊥ iff dom(y) has a value ∉ {c, ⊥} (M3).  Folded
/// over a partner class that is: c while no partner lacks c, the other
/// colours while no partner's domain is within {c}, ⊥ while none is within
/// {c, ⊥}.  In a self-partnered class x's own share is left out — its self
/// pair is the unary ⊥ ban, not an arc.
Mask supported(const BicliqueIndex& index, const std::vector<ClassCounts>& counts,
               std::int32_t x, Mask dom, Mask all_colours) {
  Mask keep = all_colours | Mask{1};
  for (int c = 1; c <= index.k(); ++c) {
    const std::int32_t cls = index.class_of(x, c);
    if (cls == kNoClass) continue;
    const std::int32_t partner = index.partner(cls);
    if (partner == kNoClass) continue;
    ClassCounts n = counts[static_cast<std::size_t>(partner)];
    if (partner == cls) n -= share(dom, c);
    const Mask cbit = Mask{1} << c;
    if (n.lacking != 0) keep &= ~cbit;
    if (n.within_c != 0) keep &= cbit | Mask{1};
    if (n.within_c_bot != 0) keep &= ~Mask{1};
  }
  return keep;
}

/// Arc consistency on class counters — AC-4's idea (Mohr and Henderson,
/// "Arc and path consistency revisited", AIJ 1986) over bicliques.  Each
/// sweep recounts every class from the current domains, then narrows every
/// domain to what its partner classes support; until a sweep changes
/// nothing.  Counts that go stale within a sweep only overstate support, so
/// no sweep removes a value the fixpoint keeps, and the quiet last sweep is
/// that fixpoint: per-arc AC-3's.  On a catalogue of d-regular views the
/// initial domains are already arc consistent (a class-c member keeps c
/// and, for d >= 2, another colour; d = 1 leaves only self pairs), so there
/// the pass is one quiet sweep.  Returns false on a domain wipe-out (the
/// instance is UNSAT with zero search nodes).
bool arc_consistency(Problem& problem, Mask all_colours) {
  const BicliqueIndex& index = problem.index;
  std::vector<Mask>& domains = problem.base_domains;
  std::vector<ClassCounts> counts;
  for (bool changed = true; changed;) {
    changed = false;
    counts.assign(static_cast<std::size_t>(index.class_count()), ClassCounts{});
    for (std::int32_t x = 0; x < problem.n; ++x) {
      for (int c = 1; c <= index.k(); ++c) {
        const std::int32_t cls = index.class_of(x, c);
        if (cls == kNoClass) continue;
        counts[static_cast<std::size_t>(cls)] += share(domains[static_cast<std::size_t>(x)], c);
      }
    }
    for (std::int32_t x = 0; x < problem.n; ++x) {
      Mask& dom = domains[static_cast<std::size_t>(x)];
      const Mask kept = dom & supported(index, counts, x, dom, all_colours);
      if (kept == dom) continue;
      dom = kept;
      if (kept == 0) return false;
      changed = true;
    }
  }
  return true;
}

/// Backtracking search state.  MRV (fail-first) picks the unassigned
/// variable with the smallest domain, ties by index.  The unassigned
/// variables are filed in one two-level bitset per domain size, 0 to k + 1:
/// a domain change moves its variable between two buckets in O(1), and a
/// pick takes the lowest set bit of the lowest non-empty bucket, reading
/// one summary bit per 64 variables.
struct SearchState {
  std::vector<Mask> domains;
  std::vector<Colour> assignment;
  std::vector<char> assigned;
  /// Per class: the AND of the masks that the values on the current path
  /// have applied to its members, all ones where none has.
  std::vector<Mask> guards;
  std::uint64_t explored = 0;
  std::uint64_t class_walks = 0;

  explicit SearchState(const Problem& problem)
      : domains(problem.base_domains),
        assignment(static_cast<std::size_t>(problem.n), gk::kNoColour),
        assigned(static_cast<std::size_t>(problem.n), 0),
        guards(static_cast<std::size_t>(problem.index.class_count()), ~Mask{0}),
        sizes_(static_cast<std::size_t>(problem.index.k()) + 2),
        words_((static_cast<std::size_t>(problem.n) + 63) / 64),
        summaries_((words_ + 63) / 64),
        filed_(static_cast<std::size_t>(problem.n), kUnfiled),
        bits_(sizes_ * words_, 0),
        summary_bits_(sizes_ * summaries_, 0) {
    for (std::int32_t v = 0; v < problem.n; ++v) touch(v);
  }

  /// Files unassigned variable v under its current domain size.
  void touch(std::int32_t v) {
    const auto size = static_cast<std::uint8_t>(domain_size(domains[static_cast<std::size_t>(v)]));
    std::uint8_t& filed = filed_[static_cast<std::size_t>(v)];
    if (filed == size) return;
    if (filed != kUnfiled) flip(filed, v);
    flip(size, v);
    filed = size;
  }

  /// Takes the smallest-domain unassigned variable (ties by index) out of
  /// its bucket, or returns -1 when no variable is filed.
  std::int32_t pick() {
    for (std::size_t size = 0; size < sizes_; ++size) {
      const std::uint64_t* summary = summary_bits_.data() + size * summaries_;
      for (std::size_t s = 0; s < summaries_; ++s) {
        if (summary[s] == 0) continue;
        const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(summary[s]));
        const auto v = static_cast<std::int32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits_[size * words_ + w])));
        flip(size, v);
        filed_[static_cast<std::size_t>(v)] = kUnfiled;
        return v;
      }
    }
    return -1;
  }

 private:
  static constexpr std::uint8_t kUnfiled = 0xff;

  /// Toggles v's bit in bucket `size`; its word's summary bit records
  /// whether the word is non-zero.
  void flip(std::size_t size, std::int32_t v) {
    const std::size_t w = static_cast<std::size_t>(v) / 64;
    std::uint64_t& word = bits_[size * words_ + w];
    word ^= std::uint64_t{1} << (v % 64);
    std::uint64_t& summary = summary_bits_[size * summaries_ + w / 64];
    const std::uint64_t bit = std::uint64_t{1} << (w % 64);
    summary = word != 0 ? summary | bit : summary & ~bit;
  }

  std::size_t sizes_;      // buckets: domain sizes 0 to k + 1
  std::size_t words_;      // 64-bit words per bucket
  std::size_t summaries_;  // summary words per bucket
  std::vector<std::uint8_t> filed_;  // per variable: its bucket, kUnfiled once picked
  std::vector<std::uint64_t> bits_;  // bucket-major
  std::vector<std::uint64_t> summary_bits_;
};

struct Frame {
  std::int32_t variable;
  Mask values;             // values of the variable's domain not yet tried
  std::size_t trail_mark;  // where the current value's prunes start on the trail
  std::size_t guard_mark;  // ... and its guard narrowings on the guard trail
};

/// The guard contract, checked on a walk the guard skipped: walking class
/// `cls` with `allowed` for variable `var` would prune nothing and meet no
/// conflict.
void check_skipped_walk(const BicliqueIndex& index, const SearchState& state, std::int32_t cls,
                        std::int32_t var, Mask allowed) {
  for (const std::int32_t other : index.members(cls)) {
    if (other == var) continue;
    const auto x = static_cast<std::size_t>(other);
    const bool quiet = state.assigned[x] ? (allowed & (Mask{1} << state.assignment[x])) != 0
                                         : (state.domains[x] & ~allowed) == 0;
    if (!quiet) {
      throw std::logic_error("solve: the guard of class " + std::to_string(cls) +
                             " skipped a walk that changes view " + std::to_string(other));
    }
  }
}

/// Serial backtracking from a prepared state.  `first_value_mask`, when
/// non-zero, restricts the root frame to a subset of its domain (the unit
/// of parallel branch decomposition).  `cancel` aborts the search with an
/// indeterminate result (only ever observed by branches that lost the
/// deterministic merge).
bool search(const Problem& problem, SearchState& state, Mask first_value_mask,
            const std::atomic<bool>* cancel) {
  // One undo trail for the whole search (Schulte, "Comparing trailing and
  // copying for constraint programming", ICLP 1999): every prune pushes the
  // domain it replaced, and each frame's prunes are the segment from its
  // mark to the next frame's.  The guards keep a second trail, marked the
  // same way.
  std::vector<std::pair<std::int32_t, Mask>> trail;
  std::vector<std::pair<std::int32_t, Mask>> guard_trail;
  std::vector<Frame> stack;
  const std::int32_t first = state.pick();
  if (first < 0) return true;  // no variables at all
  stack.push_back({first,
                   first_value_mask ? first_value_mask & state.domains[static_cast<std::size_t>(first)]
                                    : state.domains[static_cast<std::size_t>(first)],
                   0, 0});

  // Restores the frame's trail segment front to back, oldest first, so a
  // variable pruned twice under one value (reached through partner classes
  // of two colours) comes back with its first prune still applied: an
  // over-prune that outlives the value.  The pinned search-node counts are
  // this search's; walking the segment back to front gives the same
  // verdicts over larger trees (docs/lowerbound.md, "Known issue: the undo
  // order").
  auto undo = [&](const Frame& frame) {
    for (std::size_t i = frame.trail_mark; i < trail.size(); ++i) {
      const auto [other, mask] = trail[i];
      state.domains[static_cast<std::size_t>(other)] = mask;
      state.touch(other);
    }
    trail.resize(frame.trail_mark);
    // A value narrows each guard at most once, so this segment names each
    // class once and its order does not matter.
    for (std::size_t i = frame.guard_mark; i < guard_trail.size(); ++i) {
      const auto [cls, mask] = guard_trail[i];
      state.guards[static_cast<std::size_t>(cls)] = mask;
    }
    guard_trail.resize(frame.guard_mark);
    state.assigned[static_cast<std::size_t>(frame.variable)] = 0;
  };

  while (!stack.empty()) {
    if (cancel && (state.explored & 1023u) == 0 &&
        cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    Frame& frame = stack.back();
    const std::int32_t var = frame.variable;
    if (frame.values == 0) {
      state.touch(var);  // pick took it out of its bucket
      stack.pop_back();
      if (!stack.empty()) undo(stack.back());
      continue;
    }
    // Try ⊥ first, then colours ascending (bit order == the seed's domain
    // vector order).
    const Mask value_bit = frame.values & (~frame.values + 1);
    frame.values &= ~value_bit;
    const Colour value = static_cast<Colour>(std::countr_zero(value_bit));
    ++state.explored;
    state.assignment[static_cast<std::size_t>(var)] = value;
    state.assigned[static_cast<std::size_t>(var)] = 1;

    // Forward checking, one partner class per incident colour, skipping a
    // class whose guard already lies within `allowed`.  While the values
    // that narrowed guard[P] stand, every unassigned member of P has its
    // domain inside it: domains only shrink, and an undo restores a domain
    // recorded after the mask went on (or, under the oldest-first order, a
    // subset of one).  Every assigned member's value lies inside it too:
    // it was checked when the mask went on, or drawn later from such a
    // domain; and a variable walking its own self-partnered class never
    // holds ⊥, which the unary ban removed.  So the skipped walk would
    // prune nothing and meet no conflict: the trail, the buckets and the
    // search tree are the same as without guards.
    const BicliqueIndex& index = problem.index;
    bool dead = false;
    for (int c = 1; c <= index.k() && !dead; ++c) {
      const std::int32_t cls = index.class_of(var, c);
      if (cls == kNoClass) continue;
      const std::int32_t partner = index.partner(cls);
      if (partner == kNoClass) continue;
      const Mask allowed = partner_values(value, c);
      Mask& guard = state.guards[static_cast<std::size_t>(partner)];
      if ((guard & ~allowed) == 0) {
        if constexpr (kCheckGuards) check_skipped_walk(index, state, partner, var, allowed);
        continue;
      }
      ++state.class_walks;
      for (const std::int32_t other : index.members(partner)) {
        if (other == var) continue;  // the self pair: the unary ⊥ ban
        if (state.assigned[static_cast<std::size_t>(other)]) {
          const Colour other_value = state.assignment[static_cast<std::size_t>(other)];
          if ((allowed & (Mask{1} << other_value)) == 0) {
            dead = true;
            break;
          }
          continue;
        }
        Mask& dom = state.domains[static_cast<std::size_t>(other)];
        const Mask pruned = dom & allowed;
        if (pruned != dom) {
          trail.emplace_back(other, dom);
          dom = pruned;
          state.touch(other);
          if (pruned == 0) {
            dead = true;
            break;
          }
        }
      }
      if (!dead) {
        guard_trail.emplace_back(partner, guard);
        guard &= allowed;
      }
    }
    if (dead) {
      // Roll back this value's prunes; the frame then tries its next value.
      undo(frame);
      continue;
    }
    const std::int32_t next = state.pick();
    if (next < 0) return true;  // complete assignment
    stack.push_back(
        {next, state.domains[static_cast<std::size_t>(next)], trail.size(), guard_trail.size()});
  }
  return false;
}

/// (M1): ⊥ plus every colour c of view v's root, read off the index (v
/// has a c-membership iff it has a c-edge).
Mask base_domain(const BicliqueIndex& index, std::int32_t v) {
  Mask dom = Mask{1};
  for (int c = 1; c <= index.k(); ++c) {
    if (index.class_of(v, c) != kNoClass) dom |= Mask{1} << c;
  }
  return dom;
}

Problem build_problem(const BicliqueIndex& index) {
  Problem problem{index, index.view_count(), {}};
  problem.base_domains.resize(static_cast<std::size_t>(problem.n));
  for (std::int32_t v = 0; v < problem.n; ++v) {
    problem.base_domains[static_cast<std::size_t>(v)] = base_domain(index, v);
  }
  // Self pairs (a view compatible with itself along c: every member of a
  // self-partnered class) are a unary constraint — (M3) bans ⊥ — applied
  // to the domain directly.
  for (std::int32_t cls = 0; cls < index.class_count(); ++cls) {
    if (index.partner(cls) != cls) continue;
    for (const std::int32_t x : index.members(cls)) {
      problem.base_domains[static_cast<std::size_t>(x)] &= ~Mask{1};
    }
  }
  Mask all_colours = 0;
  for (int c = 1; c <= index.k(); ++c) all_colours |= Mask{1} << c;
  problem.wiped_out = !arc_consistency(problem, all_colours);
  return problem;
}

/// Throws unless `pairs` is compatible_pairs(index) element for element,
/// checked in one pass over the index's pair walk.
void require_index_pairs(const BicliqueIndex& index, const std::vector<CompatiblePair>& pairs) {
  if (pairs.size() != index.pair_count()) {
    throw std::invalid_argument("solve: " + std::to_string(pairs.size()) +
                                " pairs given, the catalogue has " +
                                std::to_string(index.pair_count()));
  }
  std::size_t i = 0;
  std::size_t first_difference = pairs.size();
  index.for_each_pair([&](int a, int b, Colour c) {
    const CompatiblePair& pair = pairs[i];
    if ((pair.a != a || pair.b != b || pair.colour != c) && first_difference == pairs.size()) {
      first_difference = i;
    }
    ++i;
  });
  if (first_difference != pairs.size()) {
    throw std::invalid_argument("solve: pair " + std::to_string(first_difference) +
                                " differs from compatible_pairs(catalogue)");
  }
}

/// The search driver shared by the raw and the orbit-mode entry points.
CspResult solve_problem(const Problem& problem, const CspOptions& options) {
  CspResult result;
  if (problem.wiped_out) return result;  // UNSAT by propagation alone

  const int threads = std::max(1, options.threads);
  if (threads == 1 || problem.n == 0) {
    SearchState state(problem);
    result.satisfiable = search(problem, state, 0, nullptr);
    result.nodes_explored = state.explored;
    result.class_walks = state.class_walks;
    if (result.satisfiable) result.labelling = std::move(state.assignment);
    return result;
  }

  // Parallel exploration of the root variable's branchings.  Branch i may
  // only be cancelled once a branch j < i has proven SAT, so the smallest
  // SAT branch always completes — its labelling is exactly what the serial
  // search (which tries branch values in the same ⊥-then-ascending order)
  // would have returned.
  SearchState root_probe(problem);
  const std::int32_t root_var = root_probe.pick();
  if (root_var < 0) {
    result.satisfiable = true;
    result.labelling.assign(static_cast<std::size_t>(problem.n), gk::kNoColour);
    return result;
  }
  std::vector<Mask> branch_bits;
  Mask dom = problem.base_domains[static_cast<std::size_t>(root_var)];
  while (dom != 0) {
    const Mask bit = dom & (~dom + 1);
    branch_bits.push_back(bit);
    dom &= ~bit;
  }
  const int branch_count = static_cast<int>(branch_bits.size());
  std::vector<char> found(static_cast<std::size_t>(branch_count), 0);
  std::vector<std::vector<Colour>> labellings(static_cast<std::size_t>(branch_count));
  std::vector<std::uint64_t> explored(static_cast<std::size_t>(branch_count), 0);
  std::vector<std::uint64_t> walks(static_cast<std::size_t>(branch_count), 0);
  // An exception from a branch's search (a broken guard contract, say) is
  // rethrown on the calling thread once every worker has joined.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(branch_count));
  std::atomic<int> best{branch_count};
  std::vector<std::atomic<bool>> cancel(static_cast<std::size_t>(branch_count));
  for (auto& flag : cancel) flag.store(false, std::memory_order_relaxed);
  std::atomic<int> next_branch{0};

  auto worker = [&]() {
    while (true) {
      const int i = next_branch.fetch_add(1, std::memory_order_relaxed);
      if (i >= branch_count) return;
      if (best.load(std::memory_order_acquire) < i) continue;
      bool sat = false;
      SearchState state(problem);
      try {
        sat = search(problem, state, branch_bits[static_cast<std::size_t>(i)],
                     &cancel[static_cast<std::size_t>(i)]);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
      explored[static_cast<std::size_t>(i)] = state.explored;
      walks[static_cast<std::size_t>(i)] = state.class_walks;
      if (sat) {
        found[static_cast<std::size_t>(i)] = 1;
        labellings[static_cast<std::size_t>(i)] = std::move(state.assignment);
        int expected = best.load(std::memory_order_acquire);
        while (i < expected &&
               !best.compare_exchange_weak(expected, i, std::memory_order_acq_rel)) {
        }
        // Cancel every higher-indexed branch.
        for (int j = i + 1; j < branch_count; ++j) {
          cancel[static_cast<std::size_t>(j)].store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  const int workers = std::min(threads, branch_count);
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (std::uint64_t count : explored) result.nodes_explored += count;
  for (std::uint64_t count : walks) result.class_walks += count;
  const int winner = best.load(std::memory_order_acquire);
  if (winner < branch_count) {
    result.satisfiable = true;
    result.labelling = std::move(labellings[static_cast<std::size_t>(winner)]);
  }
  return result;
}

/// The four public entry points: raw or orbit catalogue, with or without a
/// caller's pair list to check against the catalogue's index.
CspResult solve_index(const BicliqueIndex& index, const std::vector<CompatiblePair>* pairs,
                      const CspOptions& options) {
  if (index.k() > kMaxCspColours) {
    throw std::invalid_argument("solve: k = " + std::to_string(index.k()) + " exceeds the " +
                                std::to_string(kMaxCspColours) + " colours of mask domains");
  }
  if (pairs != nullptr) require_index_pairs(index, *pairs);
  return solve_problem(build_problem(index), options);
}

}  // namespace

CspResult solve(const ViewCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options) {
  return solve_index(catalogue.index(), &pairs, options);
}

CspResult solve(const ViewCatalogue& catalogue, const CspOptions& options) {
  return solve_index(catalogue.index(), nullptr, options);
}

CspResult solve(const OrbitCatalogue& catalogue, const std::vector<CompatiblePair>& pairs,
                const CspOptions& options) {
  return solve_index(catalogue.index(), &pairs, options);
}

CspResult solve(const OrbitCatalogue& catalogue, const CspOptions& options) {
  return solve_index(catalogue.index(), nullptr, options);
}

std::vector<Colour> induced_labelling(const ViewCatalogue& catalogue,
                                      const local::LocalAlgorithm& algorithm) {
  if (algorithm.running_time() + 1 != catalogue.rho()) {
    throw std::invalid_argument("induced_labelling: algorithm radius does not match catalogue");
  }
  std::vector<Colour> out;
  out.reserve(static_cast<std::size_t>(catalogue.size()));
  for (const colsys::ColourSystem& view : catalogue.views()) {
    out.push_back(algorithm.evaluate(view));
  }
  return out;
}

std::optional<CompatiblePair> check_labelling(const ViewCatalogue& catalogue,
                                              const std::vector<Colour>& labelling) {
  if (labelling.size() != static_cast<std::size_t>(catalogue.size())) {
    throw std::invalid_argument("check_labelling: size mismatch");
  }
  const BicliqueIndex& index = catalogue.index();
  // (M1): ⊥, or a colour of the view's root.
  for (int v = 0; v < catalogue.size(); ++v) {
    const Colour out = labelling[static_cast<std::size_t>(v)];
    if (out == gk::kNoColour) continue;
    if (out > index.k() || index.class_of(v, out) == kNoClass) return CompatiblePair{v, v, out};
  }
  // The pairs in compatible_pairs order, straight off the index: the list
  // itself (115 MB at k = 4, ρ = 3) is never built.
  std::optional<CompatiblePair> violated;
  index.for_each_pair([&](int a, int b, Colour c) {
    if (violated) return;
    const CompatiblePair pair{a, b, c};
    if (!consistent(pair, labelling[static_cast<std::size_t>(a)],
                    labelling[static_cast<std::size_t>(b)])) {
      violated = pair;
    }
  });
  return violated;
}

}  // namespace dmm::nbhd
