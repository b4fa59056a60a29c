// Slab bump allocator for the library's large, uniform object populations
// (per-node engine programs, template-tree bookkeeping).
//
// The regime this targets is n = 10⁷ objects constructed in one burst at
// the start of a run and destroyed together at the end: a general-purpose
// heap pays a malloc/free pair plus ~16 bytes of header per object, which
// is exactly the "per-node allocation dominates init" ceiling the ROADMAP
// names.  The arena instead carves objects out of megabyte slabs with a
// single 64-bit cursor bump, and reset() recycles every slab without
// returning memory to the OS, so a reused arena allocates nothing in
// steady state.
//
// The arena owns raw memory only — it never runs destructors.  Owners that
// place non-trivial objects in it (local::ProgramPool) must destroy them
// before reset().  All cursors and size arithmetic are std::size_t; the
// only platform assumption is that operator new[] returns memory aligned
// for std::max_align_t, which bounds the alignment the arena can serve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dmm::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = std::size_t{1} << 20;  // 1 MiB

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes == 0 ? kDefaultSlabBytes : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t)).  Never returns nullptr; throws
  /// std::bad_alloc when the request itself cannot be represented.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (align == 0 || (align & (align - 1)) != 0 || align > alignof(std::max_align_t)) {
      throw std::invalid_argument("Arena: unsupported alignment");
    }
    if (bytes > SIZE_MAX - align) throw std::bad_alloc();
    for (;;) {
      if (active_ < slabs_.size()) {
        Slab& slab = slabs_[active_];
        // Slab bases are max_align-aligned, so aligning the offset aligns
        // the pointer.  Computed entirely in std::size_t: a 16 GiB slot
        // plane cannot wrap this cursor.
        const std::size_t aligned = (cursor_ + (align - 1)) & ~(align - 1);
        if (aligned <= slab.capacity && bytes <= slab.capacity - aligned) {
          cursor_ = aligned + bytes;
          allocated_ += bytes;
          return slab.data.get() + aligned;
        }
        // The tail of this slab is too small; move on.  reset() rewinds to
        // slab 0, so the waste is bounded and recycled.
        ++active_;
        cursor_ = 0;
        continue;
      }
      // The arena hands out uninitialised storage, so a new slab is not
      // zero-filled either: untouched pages of a fresh slab are never
      // faulted in.
      const std::size_t capacity = bytes > slab_bytes_ ? bytes : slab_bytes_;
      slabs_.push_back(Slab{std::make_unique_for_overwrite<std::byte[]>(capacity), capacity});
    }
  }

  /// Uninitialised storage for `count` objects of type T; the caller
  /// placement-constructs.  Guards the count*sizeof(T) product.
  template <class T>
  T* allocate_array(std::size_t count) {
    if (count > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Constructs one T in the arena.  The caller is responsible for running
  /// the destructor (the arena will not).
  template <class T, class... Args>
  T* make(Args&&... args) {
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Rewinds every cursor without releasing slabs: the next fill reuses the
  /// same memory.  Any objects previously placed in the arena must already
  /// have been destroyed.
  void reset() noexcept {
    active_ = 0;
    cursor_ = 0;
    allocated_ = 0;
  }

  /// Bytes handed out since construction or the last reset().
  std::size_t bytes_allocated() const noexcept { return allocated_; }

  /// Total slab capacity held (survives reset — the reuse guarantee).
  std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.capacity;
    return total;
  }

  std::size_t slab_count() const noexcept { return slabs_.size(); }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
  };

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::size_t active_ = 0;  // slab currently being bumped
  std::size_t cursor_ = 0;  // byte offset into the active slab
  std::size_t allocated_ = 0;
};

}  // namespace dmm::util
