// Arena-pooled, type-erased NodeProgram storage.
//
// Both simulation engines used to hold one std::unique_ptr<NodeProgram>
// per node — at n = 10⁷ that is ten million malloc/free pairs before the
// first message is sent, and it was the dominant phase of flat-engine
// setup (ROADMAP "Engine throughput").  A ProgramPool instead places the
// programs into a util::Arena:
//
//   * emplace<T>        — one program, one cursor bump;
//   * emplace_batch<T>  — the tuned path: one contiguous allocation for
//     the whole node range, so a homogeneous population (greedy) is laid
//     out back to back and the engines' per-node walk is sequential;
//   * adopt             — takes a heap-built program; a ProgramSource
//     made from a plain callable builds its programs this way.
//
// The pool owns lifetime, the arena owns memory: clear() runs every
// pooled destructor (reverse order), releases adopted programs, and
// resets the arena so a reused pool reallocates nothing.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "local/engine.hpp"
#include "util/arena.hpp"

namespace dmm::local {

class ProgramPool {
 public:
  ProgramPool() = default;
  explicit ProgramPool(std::size_t slab_bytes) : arena_(slab_bytes) {}
  ~ProgramPool() { clear(); }

  ProgramPool(const ProgramPool&) = delete;
  ProgramPool& operator=(const ProgramPool&) = delete;

  /// Constructs one T in the arena and appends it.
  template <class T, class... Args>
  T* emplace(Args&&... args) {
    static_assert(std::is_base_of_v<NodeProgram, T>);
    T* program = arena_.make<T>(std::forward<Args>(args)...);
    pooled_.push_back(program);
    items_.push_back(program);
    return program;
  }

  /// The batched fast path: one contiguous arena block for `count`
  /// programs, each constructed from (a copy of) the same arguments.
  template <class T, class... Args>
  void emplace_batch(std::size_t count, const Args&... args) {
    static_assert(std::is_base_of_v<NodeProgram, T>);
    if (count == 0) return;
    T* block = arena_.allocate_array<T>(count);
    items_.reserve(items_.size() + count);
    pooled_.reserve(pooled_.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      // Registered one by one so a throwing constructor leaves no
      // untracked live objects behind.
      T* program = new (block + i) T(args...);
      pooled_.push_back(program);
      items_.push_back(program);
    }
  }

  /// Takes ownership of a heap-constructed program and appends it.
  NodeProgram* adopt(std::unique_ptr<NodeProgram> program);

  NodeProgram* operator[](std::size_t i) const noexcept { return items_[i]; }
  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  void reserve(std::size_t count) { items_.reserve(count); }

  /// Destroys every program (pooled ones in reverse construction order)
  /// and rewinds the arena; the slabs stay reserved for the next fill.
  void clear();

  const util::Arena& arena() const noexcept { return arena_; }

 private:
  util::Arena arena_;
  std::vector<NodeProgram*> items_;    // node order, pooled and adopted mixed
  std::vector<NodeProgram*> pooled_;   // arena-constructed: destroy in place
  std::vector<std::unique_ptr<NodeProgram>> adopted_;  // heap-built
};

}  // namespace dmm::local
