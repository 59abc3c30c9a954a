// Epoch (bump) arena: the allocation substrate of the SoA hot path
// (DESIGN.md §8). Dispatch rounds, grouping enumeration, insertion scratch
// and proposal buffers bump-allocate from an arena and the whole thing is
// rewound once per batch — after the first few batches have grown the
// chunks, a steady-state round performs zero heap allocations.
//
// Lifetime rules:
//  - Allocate() returns storage valid until the enclosing Reset() (or a
//    Restore() past it). Chunks are retained across Reset, so a warmed
//    arena never re-allocates for workloads no bigger than it has seen.
//  - Chunks never move: pointers stay stable while allocation continues,
//    which is what lets pooled schedules reference earlier arena blocks.
//  - Save()/Restore() give nested scopes (ArenaScope) a stack discipline on
//    top of the epoch: a scope's allocations die at scope exit, its
//    parent's survive.
//  - Arenas are single-threaded. Cross-thread use goes through the
//    per-thread ScratchArena(); worker pools keep threads alive across
//    batches, so thread scratch warms exactly like the batch arena.
//
// Under AddressSanitizer, chunk space past the bump position is poisoned
// (on AddChunk, Restore and Reset) and every block is followed by a
// poisoned redzone, so a read or write outside a live block is reported as
// use-after-poison. Outside ASan builds the poisoning compiles away and the
// layout is unchanged.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace structride {

namespace arena_internal {
// Process-wide retained-byte accounting (all arenas, all threads), sampled
// into RunMetrics::arena_peak_bytes. Updated only on the cold paths (chunk
// allocation / arena destruction), never per Allocate.
inline std::atomic<size_t> g_retained_bytes{0};
inline std::atomic<size_t> g_peak_retained_bytes{0};

inline void NoteRetained(size_t delta) {
  size_t now = g_retained_bytes.fetch_add(delta, std::memory_order_relaxed) +
               delta;
  size_t peak = g_peak_retained_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak_retained_bytes.compare_exchange_weak(
             peak, now, std::memory_order_relaxed)) {
  }
}
inline void NoteReleased(size_t delta) {
  g_retained_bytes.fetch_sub(delta, std::memory_order_relaxed);
}
}  // namespace arena_internal

class EpochArena {
 public:
  /// Position watermark for nested scopes: which chunk, how far into it.
  struct Mark {
    size_t chunk = 0;
    size_t used = 0;
  };

  explicit EpochArena(size_t first_chunk_bytes = kDefaultFirstChunk)
      : first_chunk_bytes_(first_chunk_bytes) {}

  EpochArena(const EpochArena&) = delete;
  EpochArena& operator=(const EpochArena&) = delete;

  ~EpochArena() {
    for (const Chunk& c : chunks_) {
      arena_internal::NoteReleased(c.size);
      Unpoison(c.data, c.size);
      ::operator delete(c.data);
    }
  }

  /// Raw bump allocation; alignment must be a power of two.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    while (true) {
      if (chunk_ < chunks_.size()) {
        Chunk& c = chunks_[chunk_];
        size_t at = (used_ + (align - 1)) & ~(align - 1);
        if (at + bytes + kRedzone <= c.size) {
          used_ = at + bytes + kRedzone;
          Unpoison(c.data + at, bytes);
          return c.data + at;
        }
        // Doesn't fit: move to the next retained chunk (or grow below).
        if (chunk_ + 1 < chunks_.size()) {
          ++chunk_;
          used_ = 0;
          continue;
        }
      }
      AddChunk(bytes + align + kRedzone);
    }
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena storage is never destructed");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty; chunks are retained, so a warmed arena re-serves the
  /// same workload without touching the heap. Bumps the epoch.
  void Reset() {
    Restore({0, 0});
    ++epoch_;
  }

  Mark Save() const { return {chunk_, used_}; }
  void Restore(const Mark& m) {
    PoisonFrom(m);
    chunk_ = m.chunk;
    used_ = m.used;
  }

  uint64_t epoch() const { return epoch_; }

  /// Heap bytes held by the chunks (survives Reset; this is the warmth).
  size_t retained_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  /// Bytes currently handed out (full chunks before chunk_ plus the bump).
  size_t used_bytes() const {
    size_t total = 0;
    for (size_t k = 0; k < chunk_ && k < chunks_.size(); ++k) {
      total += chunks_[k].size;
    }
    return total + used_;
  }

  static size_t ProcessRetainedBytes() {
    return arena_internal::g_retained_bytes.load(std::memory_order_relaxed);
  }
  /// High-water mark of ProcessRetainedBytes over the process lifetime.
  static size_t ProcessPeakRetainedBytes() {
    return arena_internal::g_peak_retained_bytes.load(
        std::memory_order_relaxed);
  }

 private:
  // Generous enough that realistic per-batch / per-task scratch fits the
  // very first chunk — warm-up is one allocation, steady state is zero.
  static constexpr size_t kDefaultFirstChunk = size_t{256} << 10;

  struct Chunk {
    char* data = nullptr;
    size_t size = 0;
  };

#ifdef __SANITIZE_ADDRESS__
  /// Poisoned gap left after every block.
  static constexpr size_t kRedzone = 16;
  static void Poison(char* p, size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
  static void Unpoison(char* p, size_t n) {
    ASAN_UNPOISON_MEMORY_REGION(p, n);
  }
  /// Poisons everything handed out past \p m: the rest of its chunk and
  /// every later chunk up to the current one.
  void PoisonFrom(const Mark& m) {
    for (size_t k = m.chunk; k <= chunk_ && k < chunks_.size(); ++k) {
      const size_t from = k == m.chunk ? m.used : 0;
      Poison(chunks_[k].data + from, chunks_[k].size - from);
    }
  }
#else
  static constexpr size_t kRedzone = 0;
  static void Poison(char*, size_t) {}
  static void Unpoison(char*, size_t) {}
  void PoisonFrom(const Mark&) {}
#endif

  void AddChunk(size_t at_least) {
    size_t size = chunks_.empty() ? first_chunk_bytes_
                                  : chunks_.back().size * 2;
    if (size < at_least) size = at_least;
    Chunk c;
    c.data = static_cast<char*>(::operator new(size));
    c.size = size;
    Poison(c.data, c.size);
    arena_internal::NoteRetained(size);
    chunks_.push_back(c);
    chunk_ = chunks_.size() - 1;
    used_ = 0;
  }

  size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t chunk_ = 0;  ///< current chunk index (== chunks_.size() when empty)
  size_t used_ = 0;   ///< bump offset into chunks_[chunk_]
  uint64_t epoch_ = 0;
};

/// The calling thread's scratch arena. Persistent for the thread's
/// lifetime; pool workers live across batches, so their scratch warms once.
/// Always use through ArenaScope so nested callers compose.
inline EpochArena& ScratchArena() {
  thread_local EpochArena arena;
  return arena;
}

/// RAII watermark: allocations made after construction are released (the
/// position rewinds) at destruction. Parent scopes' blocks are untouched.
class ArenaScope {
 public:
  explicit ArenaScope(EpochArena& arena) : arena_(&arena), mark_(arena.Save()) {}
  ~ArenaScope() { arena_->Restore(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  EpochArena* arena() const { return arena_; }
  template <typename T>
  T* AllocateArray(size_t n) const {
    return arena_->AllocateArray<T>(n);
  }

 private:
  EpochArena* arena_;
  EpochArena::Mark mark_;
};

}  // namespace structride
