// The storage behind every run's programs: a local::ProgramSource calls its
// callable once per node, in node order, and builds each result in place
// in the local::ProgramPool's one block.  The engines rely on the contract
// pinned here: a refill reuses the block and replaces the programs, a
// throwing constructor leaves only what it built (each destroyed once —
// the ASan+UBSan CI leg aborts on a double destroy or a leak), copies of a
// source share its state, the programs sit back to back, and pool[v] finds
// the NodeProgram base wherever it sits inside the program's type.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "algo/greedy.hpp"
#include "local/engine.hpp"

namespace dmm::local {
namespace {

struct Tally {
  int throw_at = -1;           // the id whose constructor throws
  int live = 0;
  std::vector<int> destroyed;  // ids, in destruction order
};

/// Logs its construction and destruction in a Tally.  It can be neither
/// copied nor moved, so only guaranteed copy elision lets a source build it.
class CountedProgram final : public NodeProgram {
 public:
  CountedProgram(Tally* tally, int id) : tally_(tally), id_(id) {
    if (id == tally_->throw_at) throw std::runtime_error("CountedProgram: refused");
    ++tally_->live;
  }
  ~CountedProgram() override {
    --tally_->live;
    tally_->destroyed.push_back(id_);
  }
  CountedProgram(const CountedProgram&) = delete;
  CountedProgram& operator=(const CountedProgram&) = delete;

  int id() const { return id_; }
  bool init(std::span<const Colour>) override { return true; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return kUnmatched; }

 private:
  Tally* tally_;
  int id_;
};

/// Numbers its programs 0, 1, 2, … across every build, by every copy.
ProgramSource counted(Tally& tally) {
  return [&tally, next = 0]() mutable { return CountedProgram(&tally, next++); };
}

int id_at(const ProgramPool& pool, std::size_t v) {
  return static_cast<const CountedProgram*>(pool[v])->id();
}

TEST(ProgramPool, RefillReusesTheBlockAndReplacesThePrograms) {
  Tally tally;
  ProgramPool pool;
  const ProgramSource source = counted(tally);
  source.build(8, pool);
  const NodeProgram* const node0 = pool[0];
  source.build(8, pool);
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(tally.live, 8);
  EXPECT_EQ(pool[0], node0);
  EXPECT_EQ(id_at(pool, 0), 8);
  EXPECT_EQ(tally.destroyed, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  source.build(3, pool);  // a smaller refill fits the same block
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(tally.live, 3);
  EXPECT_EQ(pool[0], node0);
}

TEST(ProgramPool, ThrowingConstructorLeavesTheProgramsBeforeIt) {
  for (const bool cleared : {true, false}) {
    Tally tally;
    tally.throw_at = 5;
    {
      ProgramPool pool;
      EXPECT_THROW(counted(tally).build(10, pool), std::runtime_error);
      EXPECT_EQ(pool.size(), 5u);
      EXPECT_EQ(tally.live, 5);
      for (std::size_t v = 0; v < pool.size(); ++v) EXPECT_EQ(id_at(pool, v), static_cast<int>(v));
      if (cleared) {
        pool.clear();
        EXPECT_EQ(pool.size(), 0u);
      }
    }
    // Each built program destroyed exactly once — by clear() or by the
    // destructor, never both — the last built first.
    EXPECT_EQ(tally.live, 0) << "cleared=" << cleared;
    EXPECT_EQ(tally.destroyed, (std::vector<int>{4, 3, 2, 1, 0})) << "cleared=" << cleared;
  }
}

TEST(ProgramSource, CallsOncePerNodeInNodeOrderAndCopiesShareState) {
  Tally tally;
  ProgramPool pool;
  const ProgramSource source = counted(tally);
  const ProgramSource copy = source;  // NOLINT(performance-unnecessary-copy-initialization)
  source.build(4, pool);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_EQ(id_at(pool, v), static_cast<int>(v));
  copy.build(3, pool);  // the copy carries on the same count
  for (std::size_t v = 0; v < 3; ++v) EXPECT_EQ(id_at(pool, v), static_cast<int>(4 + v));
}

TEST(ProgramPool, ProgramsAreContiguous) {
  ProgramPool pool;
  algo::greedy_program_factory().build(64, pool);
  ASSERT_EQ(pool.size(), 64u);
  for (std::size_t v = 1; v < 64; ++v) {
    const auto prev = reinterpret_cast<std::uintptr_t>(pool[v - 1]);
    const auto cur = reinterpret_cast<std::uintptr_t>(pool[v]);
    EXPECT_EQ(cur - prev, sizeof(algo::GreedyProgram));
  }
}

/// A program whose NodeProgram base is not at offset 0: another
/// polymorphic base comes first, so pool[v] must add the base's offset.
struct Labelled {
  virtual ~Labelled() = default;
  std::uint64_t label = 0;
};
class LabelledProgram final : public Labelled, public NodeProgram {
 public:
  explicit LabelledProgram(int id) : id_(id) { label = 0xfeed; }
  bool init(std::span<const Colour>) override { return true; }
  void send(int, Outbox&) override {}
  bool receive(int, const Inbox&) override { return true; }
  Colour output() const override { return static_cast<Colour>(id_); }

 private:
  int id_;
};

TEST(ProgramPool, FindsABaseThatIsNotAtOffsetZero) {
  ProgramPool pool;
  const ProgramSource source = [next = 0]() mutable { return LabelledProgram(next++); };
  source.build(16, pool);
  ASSERT_EQ(pool.size(), 16u);
  for (std::size_t v = 0; v < 16; ++v) {
    EXPECT_EQ(pool[v]->output(), static_cast<Colour>(v));
    const auto& program = dynamic_cast<const LabelledProgram&>(*pool[v]);
    EXPECT_EQ(program.label, 0xfeedu);
    EXPECT_NE(static_cast<const void*>(pool[v]), static_cast<const void*>(&program));
  }
}

TEST(ProgramSource, EmptySourceThrows) {
  ProgramPool pool;
  EXPECT_THROW(ProgramSource().build(1, pool), std::logic_error);
}

}  // namespace
}  // namespace dmm::local
