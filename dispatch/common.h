// Helpers shared by the dispatcher implementations.

#pragma once

#include "core/insertion.h"
#include "core/vehicle.h"
#include "dispatch/dispatcher.h"
#include "util/arena.h"

namespace structride {
namespace dispatch {

/// The candidate scan: writes up to \p k in-service vehicles of ctx.fleet
/// nearest \p from into \p out (room for k) as view-local indices, ordered
/// by (straight-line distance, index), and returns the count. Answered from
/// the engine's fleet index (DispatchContext::fleet_index).
size_t NearestVehiclesInto(const DispatchContext& ctx, NodeId from, size_t k,
                           size_t* out);

/// As NearestVehiclesInto, keeping only vehicles within straight-line
/// distance \p max_dist (a negative radius matches nothing).
size_t NearestVehiclesWithinInto(const DispatchContext& ctx, NodeId from,
                                 size_t k, double max_dist, size_t* out);

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
