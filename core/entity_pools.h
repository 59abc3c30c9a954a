// Structure-of-arrays views of the core entities plus the pooled schedule
// store (DESIGN.md §8).
//
//  - SchedulePool: every transient stop sequence of a batch (candidate
//    group schedules, kinetic-tree orderings, commit staging) lives in one
//    arena-backed store addressed by {offset,len}-style handles. Storage is
//    stable until Reset — pooled consumers hold Span<const Stop> views
//    across further appends — and Reset rewinds without releasing chunks,
//    so a warmed pool serves a steady-state batch with zero heap
//    allocations. Committed vehicle schedules stay inline in Vehicle (they
//    outlive batches and mutate rarely); the pool covers the per-batch
//    churn that used to be one std::vector<Stop> per candidate.
//  - RequestSoA: the hot fields of the pending pool dispatchers scan every
//    round (ids, endpoints, deadlines) refreshed into parallel planes once
//    per batch; cold fields stay on Request. It also carries the id-sorted
//    order plane that replaces the per-batch unordered_map<RequestId, ...>
//    lookups.

#pragma once

#include <cstdint>
#include <vector>

#include "core/request.h"
#include "core/schedule.h"
#include "util/arena.h"
#include "util/span.h"

namespace structride {

class SchedulePool {
 public:
  using Handle = uint32_t;
  static constexpr Handle kInvalid = ~Handle{0};

  SchedulePool() = default;

  /// Copies \p stops into the pool; the returned handle's view is valid
  /// until Reset().
  Handle Append(Span<const Stop> stops) {
    Handle h;
    Stop* out = AppendUninit(stops.size(), &h);
    for (size_t k = 0; k < stops.size(); ++k) out[k] = stops[k];
    return h;
  }

  /// Reserves \p len uninitialized slots and returns their storage (stable
  /// until Reset — arena chunks never move). Caller fills all \p len stops.
  Stop* AppendUninit(size_t len, Handle* h) {
    Stop* out = arena_.AllocateArray<Stop>(len);
    *h = static_cast<Handle>(slots_.size());
    slots_.push_back({out, static_cast<uint32_t>(len)});
    return out;
  }

  Span<const Stop> View(Handle h) const {
    const Slot& s = slots_[h];
    return {s.ptr, s.len};
  }

  size_t NumSchedules() const { return slots_.size(); }

  /// Drops every handle and rewinds the arena; chunk and slot-vector
  /// capacity are retained (the warmth).
  void Reset() {
    slots_.clear();
    arena_.Reset();
  }

  size_t MemoryBytes() const {
    return arena_.retained_bytes() + slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    Stop* ptr = nullptr;
    uint32_t len = 0;
  };
  EpochArena arena_;
  std::vector<Slot> slots_;
};

/// Hot request fields of the pending pool in parallel planes, plus the
/// id-sorted order plane answering id -> pool-index without a hash map.
struct RequestSoA {
  std::vector<RequestId> id;
  std::vector<NodeId> source;
  std::vector<NodeId> destination;
  std::vector<double> release;
  std::vector<double> latest_pickup;
  std::vector<double> deadline;
  std::vector<double> direct;
  /// Pool indices sorted by ascending id (ids are unique within a pool).
  std::vector<uint32_t> order_by_id;

  void Refresh(Span<const Request* const> pending);
  size_t size() const { return id.size(); }

  /// Pool index of \p rid, or -1 when absent. O(log n), allocation-free.
  int64_t IndexOfId(RequestId rid) const;
  size_t MemoryBytes() const;
};

}  // namespace structride
