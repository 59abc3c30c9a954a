// Helpers shared by the dispatcher implementations.

#pragma once

#include "core/insertion.h"
#include "core/vehicle.h"
#include "dispatch/spatial_index.h"
#include "util/arena.h"

namespace structride {
namespace dispatch {

/// Result of InsertGroupSequentialPooled: the stop sequence lives in the
/// arena passed to it, valid until that arena rewinds.
struct PooledGroupInsertion {
  bool feasible = false;
  double delta_cost = 0;
  const Stop* stops = nullptr;
  size_t len = 0;
};

/// Linear insertion of \p members, in the given order, into \p committed
/// evaluated from \p state; infeasible if any member fails. \p
/// committed_legs is the vehicle's leg plane (Vehicle::legs()), parallel to
/// \p committed; each member's grown legs carry over to the next, so no
/// member re-prices a leg an earlier one already priced. Every intermediate
/// stage is ping-ponged between two \p arena blocks instead of materialized
/// as a Schedule.
PooledGroupInsertion InsertGroupSequentialPooled(
    const RouteState& state, Span<const Stop> committed,
    Span<const double> committed_legs, Span<const Request* const> members,
    TravelCostEngine* engine, EpochArena* arena);

}  // namespace dispatch
}  // namespace structride
