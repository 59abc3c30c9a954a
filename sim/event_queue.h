// The continuous-time event substrate of the simulation core: typed events
// ordered by a binary heap, beside which one run of already-sorted events
// (a replay's releases) is served through a cursor. The type ordering at
// equal timestamps is load-bearing — it fixes which of two same-time events
// a batch round observes (DESIGN.md §6;
// EventQueueTest.PopsTimeThenTypeThenFifo pins it):
//
//   scenario events            fire FIRST at their timestamp, so a state
//       change at time T (dispatch-mode switch, downtime) already covers
//       releases and ticks at exactly T.
//   release / stop completion  fire BEFORE a same-time batch tick: a request
//       released, or a stop reached, at exactly the tick is seen by it.
//   vehicle migration          fires AFTER same-time stop completions (the
//       completion that moved the vehicle across a zone edge has already
//       fired) and BEFORE a same-time batch tick, so a migrating vehicle is
//       resident in its new shard for any dispatch round at the same
//       timestamp (geo-sharding, DESIGN.md §12). Single-region runs push
//       none.
//   cancellation / expiry      fire AFTER a same-time batch tick: a rider
//       whose patience or pickup deadline runs out at exactly the tick is
//       still offered to it. The earlier of a rider's cancellation and
//       expiry always decides (each fires at its own time); cancellation
//       orders ahead of expiry, so when both coincide the rider counts as
//       cancelled.
//
// Ties within one (time, type) bucket pop in push order (FIFO), so request
// releases with equal timestamps keep their release-sorted order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace structride {

enum class EventType : uint8_t {
  kScenario = 0,
  kRequestRelease = 1,
  kStopCompletion = 2,    ///< vehicle stop or reposition arrival
  kVehicleMigration = 3,  ///< vehicle crossed a zone edge: re-home its shard
  kBatchTick = 4,
  kRiderCancellation = 5,
  kRiderExpiry = 6,
};

struct Event {
  double time = 0;
  EventType type = EventType::kBatchTick;
  /// Payload: request index (release/cancellation/expiry), fleet index
  /// (stop completion / migration) or scenario index (scenario events).
  int64_t a = 0;
  /// Payload: vehicle epoch (stop completion — stale events are dropped
  /// when the vehicle's committed timeline changed) or scenario tag.
  int64_t b = 0;
};

/// Min-heap over (time, type, insertion order). Hand-rolled so the tie
/// discipline above is explicit and testable rather than an accident of a
/// comparator wrapped in std::priority_queue.
class EventQueue {
 public:
  void Push(const Event& event);
  /// Queues \p events, already in pop order ((time, type) ascending), as if
  /// each were Pushed in turn, but never heaps them: a cursor serves the run
  /// and each pop compares its next event with the heap's top, so the pops
  /// are the same and the heap holds only the other events. SR_CHECK-fails
  /// when \p events is out of order or a previous run is still pending.
  void PushSorted(std::vector<Event> events);
  /// SR_CHECK-fails when empty.
  const Event& Top() const;
  Event Pop();

  bool empty() const { return heap_.empty() && cursor_ == sorted_.size(); }
  size_t size() const { return heap_.size() + (sorted_.size() - cursor_); }
  void Clear();

 private:
  struct Entry {
    Event event;
    uint64_t seq = 0;
  };
  static bool Before(const Entry& x, const Entry& y);
  /// The sorted run's next event pops before the heap's top.
  bool SortedFirst() const;
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<Entry> heap_;
  /// The sorted run; sorted_[k] carries insertion order sorted_seq_ + k.
  std::vector<Event> sorted_;
  size_t cursor_ = 0;  ///< sorted_[cursor_] is the run's next event
  uint64_t sorted_seq_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace structride
