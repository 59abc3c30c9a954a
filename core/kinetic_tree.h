// Kinetic tree: maintains every feasible ordering of the inserted requests'
// stops, so it answers the exact optimum that linear insertion approximates
// (the Sec. IV-A tradeoff: exponential state for exactness).

#pragma once

#include <cstddef>

#include "core/entity_pools.h"
#include "core/schedule.h"

namespace structride {

class KineticTree {
 public:
  /// Orderings live in two ping-pong SchedulePools: each Insert expands the
  /// current generation into the other pool and rewinds the old one, so a
  /// warmed tree inserts without heap allocation.
  explicit KineticTree(const RouteState& root) : root_(root) {}

  /// Inserts the request into every held ordering at every feasible
  /// position pair. Returns false — leaving the tree unchanged — if no
  /// feasible ordering survives.
  bool Insert(const Request& request, TravelCostEngine* engine);

  /// Number of feasible stop orderings currently held.
  size_t NumSchedules() const { return pools_[cur_].NumSchedules(); }

  /// Minimum travel cost over all held orderings (+infinity when empty).
  double BestCost(TravelCostEngine* engine) const;

  /// The i-th held ordering; valid until the next Insert.
  Span<const Stop> ScheduleAt(size_t i) const {
    return pools_[cur_].View(static_cast<uint32_t>(i));
  }

  size_t MemoryBytes() const {
    return pools_[0].MemoryBytes() + pools_[1].MemoryBytes();
  }

 private:
  // Safety valve: beyond this many orderings the cheapest ones are kept.
  static constexpr size_t kMaxSchedules = 4096;

  RouteState root_;
  bool empty_tree_ = true;  ///< distinguishes "no requests yet" from pruned

  // The current generation lives in pools_[cur_]; Insert expands it into
  // the other pool and flips cur_.
  SchedulePool pools_[2];
  size_t cur_ = 0;
};

}  // namespace structride
