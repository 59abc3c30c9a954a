// Allocation-free LRU map from uint64 keys to double values — the per-shard
// store behind TravelCostEngine's travel-cost cache. One flat entry pool
// with intrusive MRU/LRU links plus an open-addressing index (linear
// probing, backward-shift deletion). All memory is reserved at construction
// and no operation allocates. A hit reads its index bucket and its entry,
// and unless the entry already heads the list it relinks the entry's two
// list neighbours and the old head: up to five cache lines, against the old
// std::list + std::unordered_map node chase.
//
// Semantics match the list-based shard it replaced exactly (tests pin the
// parity): Find touches the entry most-recently-used, Insert evicts the
// least-recently-used entry once `capacity` entries are live, and the
// caller owns the canonical-key and query-count contracts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace structride {

class FlatLru {
 public:
  /// Reserves the entry pool and index for \p capacity entries (clamped to
  /// >= 1). Nothing allocates after this.
  explicit FlatLru(size_t capacity);

  /// Value stored under \p key, touched most-recently-used; nullptr when
  /// absent. The pointer is valid until the next Insert.
  const double* Find(uint64_t key);

  /// Inserts a key that must not be present (checked), evicting the
  /// least-recently-used entry when full. Returns the evicted key, if any.
  std::optional<uint64_t> Insert(uint64_t key, double value);

  size_t size() const { return size_; }
  size_t capacity() const { return entries_.size(); }

  /// Exact bytes of the two flat buffers (they never grow).
  size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(Entry) +
           table_.capacity() * sizeof(int32_t);
  }

 private:
  struct Entry {
    uint64_t key = 0;
    double value = 0;
    int32_t prev = -1;  ///< toward MRU
    int32_t next = -1;  ///< toward LRU
  };

  size_t HomeBucket(uint64_t key) const;
  /// Index-table bucket currently holding \p key (which must be present).
  size_t BucketOf(uint64_t key) const;
  void MoveToFront(int32_t idx);
  /// Empties bucket \p b, back-shifting displaced entries so every probe
  /// chain stays contiguous.
  void EraseBucket(size_t b);

  std::vector<Entry> entries_;  ///< fixed pool; slot of an entry never moves
  std::vector<int32_t> table_;  ///< open addressing: entry index or -1
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
  int32_t head_ = -1;  ///< most recently used
  int32_t tail_ = -1;  ///< least recently used
};

}  // namespace structride
