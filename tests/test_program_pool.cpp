// The arena-pooled program path (util::Arena + local::ProgramPool +
// ProgramFactory) is only allowed to exist because it is observationally
// identical to the legacy one-unique_ptr-per-node path: this suite runs
// every registered realisation through both construction paths on both
// engines and requires every RunResult field to match, and pins the
// arena's reuse/reset contract (exercised under the ASan+UBSan CI leg,
// where a double-destroy or a dangling slab pointer would abort).
#include "local/program_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "algo/greedy.hpp"
#include "algo/runner.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/flat_engine.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace dmm::local {
namespace {

// --- util::Arena ---------------------------------------------------------

TEST(Arena, AlignsAndBumps) {
  util::Arena arena(256);
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<double*>(arena.allocate(sizeof(double), alignof(double)));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
  *b = 1.5;  // must be writable
  EXPECT_EQ(*b, 1.5);
  EXPECT_GE(arena.bytes_allocated(), 3 + sizeof(double));
  EXPECT_THROW(arena.allocate(8, 3), std::invalid_argument);  // non-power-of-two
}

TEST(Arena, OversizedRequestsGetDedicatedSlabs) {
  util::Arena arena(64);
  void* big = arena.allocate(10000, alignof(std::max_align_t));
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(Arena, ResetReusesSlabsWithoutGrowing) {
  util::Arena arena(1024);
  auto fill = [&arena] {
    for (int i = 0; i < 100; ++i) arena.allocate(64, 8);
  };
  fill();
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t slabs = arena.slab_count();
  EXPECT_GT(reserved, 0u);
  // Steady state: reset + identical refill must not acquire new memory.
  for (int round = 0; round < 5; ++round) {
    arena.reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    fill();
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    EXPECT_EQ(arena.slab_count(), slabs);
  }
}

// --- ProgramPool lifetime ------------------------------------------------

/// Counts constructions and destructions so the pool's clear() contract is
/// observable.
class CountedProgram final : public NodeProgram {
 public:
  explicit CountedProgram(int* live) : live_(live) { ++*live_; }
  ~CountedProgram() override { --*live_; }
  CountedProgram(const CountedProgram&) = delete;
  CountedProgram& operator=(const CountedProgram&) = delete;

  bool init(std::span<const Colour>) override { return true; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }

 private:
  int* live_;
};

TEST(ProgramPool, ClearDestroysPooledAndAdoptedPrograms) {
  int live = 0;
  ProgramPool pool;
  for (int i = 0; i < 10; ++i) pool.emplace<CountedProgram>(&live);
  pool.adopt(std::make_unique<CountedProgram>(&live));
  EXPECT_EQ(pool.size(), 11u);
  EXPECT_EQ(live, 11);
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(live, 0);
  // The pool is reusable after clear, on the same slabs.
  const std::size_t reserved = pool.arena().bytes_reserved();
  for (int i = 0; i < 10; ++i) pool.emplace<CountedProgram>(&live);
  EXPECT_EQ(live, 10);
  EXPECT_EQ(pool.arena().bytes_reserved(), reserved);
  pool.clear();
  EXPECT_EQ(live, 0);
}

TEST(ProgramPool, EmplaceBatchIsContiguous) {
  ProgramPool pool;
  pool.emplace_batch<algo::GreedyProgram>(64);
  ASSERT_EQ(pool.size(), 64u);
  // One block: adjacent programs are exactly sizeof apart.
  for (std::size_t i = 1; i < 64; ++i) {
    const auto prev = reinterpret_cast<std::uintptr_t>(pool[i - 1]);
    const auto cur = reinterpret_cast<std::uintptr_t>(pool[i]);
    EXPECT_EQ(cur - prev, sizeof(algo::GreedyProgram));
  }
}

TEST(ProgramSource, EmptySourceThrows) {
  ProgramPool pool;
  EXPECT_THROW(ProgramSource().build(1, pool), std::logic_error);
}

// --- pooled vs unique_ptr equivalence fuzz ------------------------------
// (expect_same_result comes from engine_test_util.hpp, shared with the
// flat-vs-sync suite so both pin the same definition of equivalence.)

TEST(ProgramPool, PooledMatchesHeapForEveryRealisationAndEngine) {
  // Every registered algorithm, both engines, both construction paths:
  // RunResult must be bit-identical.  This is the fuzz suite ISSUE 4 asks
  // for; ~60 random instances plus the adversarial chains.
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 31 + 7);
    const int n = 2 + static_cast<int>(seed % 23);
    const int k = 1 + static_cast<int>(seed % 4);
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.6, rng);
    for (const algo::EngineRealisation& r : algo::engine_realisations(k)) {
      for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
        const std::string context = r.name + " seed=" + std::to_string(seed) +
                                    " engine=" + engine_kind_name(kind);
        expect_same_result(run(kind, g, r.factory, {r.round_bound}),
                           run(kind, g, ProgramSource(r.heap_factory), {r.round_bound}),
                           context);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 400);
}

TEST(ProgramPool, PooledMatchesHeapOnWorstCaseChains) {
  for (int k = 2; k <= 6; ++k) {
    const graph::WorstCase wc = graph::worst_case_chain(k);
    for (const graph::EdgeColouredGraph* g : {&wc.long_path, &wc.short_path}) {
      for (const algo::EngineRealisation& r :
           algo::engine_realisations(k, /*flood_radius_cap=*/k)) {
        for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
          expect_same_result(run(kind, *g, r.factory, {r.round_bound}),
                             run(kind, *g, ProgramSource(r.heap_factory), {r.round_bound}),
                             "chain k=" + std::to_string(k) + " " + r.name);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmm::local
