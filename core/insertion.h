// The linear insertion operator (Sec. IV-A): place one request's pickup and
// dropoff into an existing stop sequence at minimum extra travel cost. Each
// candidate position pair is priced from only the legs its splice adds: a
// Euclidean detour bound skips pairs that cannot beat the incumbent, a
// lower-bound walk rejects pairs that straight-line distance already proves
// late, and only the survivors look their added legs up. None of the three
// ever changes the result (DESIGN.md §4.8).

#pragma once

#include <limits>

#include "core/schedule.h"
#include "core/vehicle.h"
#include "util/span.h"

namespace structride {

struct InsertionCandidate {
  bool feasible = false;
  /// Pickup goes before original stop index pickup_pos; dropoff before
  /// original stop index dropoff_pos (>= pickup_pos; equal means the dropoff
  /// immediately follows the pickup).
  size_t pickup_pos = 0;
  size_t dropoff_pos = 0;
  double delta_cost = std::numeric_limits<double>::infinity();
  double total_cost = std::numeric_limits<double>::infinity();
  /// Costs of the legs the splice adds; every other leg of the grown
  /// schedule is a leg of the original one.
  struct AddedLegs {
    double into_pickup = 0;
    /// Into original stop pickup_pos; unused when the dropoff follows the
    /// pickup directly.
    double after_pickup = 0;
    double into_dropoff = 0;
    /// Into original stop dropoff_pos; unused when the dropoff ends the
    /// schedule.
    double after_dropoff = 0;
  } added;
};

/// Best feasible insertion of \p request into the stop sequence \p stops
/// evaluated from \p state; infeasible candidate if none exists. \p legs is
/// either the cost of the leg into each stop, parallel to \p stops (a
/// vehicle's committed schedule: Vehicle::legs()), or empty, in which case
/// the base walk looks the legs up. The first strict minimum in (pickup,
/// dropoff) order wins. The span form is the core operator — pooled
/// schedules (SchedulePool views, arena blocks) price without materializing
/// a Schedule.
InsertionCandidate BestInsertion(const RouteState& state,
                                 Span<const Stop> stops,
                                 Span<const double> legs,
                                 const Request& request,
                                 TravelCostEngine* engine);

/// Schedule-facing convenience wrapper over the span form (legs looked up).
InsertionCandidate BestInsertion(const RouteState& state,
                                 const Schedule& schedule,
                                 const Request& request,
                                 TravelCostEngine* engine);

/// Writes the stop sequence described by a feasible candidate into \p out
/// (room for stops.size() + 2 required; \p out must not alias \p stops).
/// Returns the written length.
size_t ApplyInsertionInto(Span<const Stop> stops, const Request& request,
                          const InsertionCandidate& candidate, Stop* out);

/// Same, and also writes the grown schedule's legs into \p out_legs (room
/// for stops.size() + 2): the original \p legs, parallel to \p stops, with
/// the candidate's added legs spliced in — exactly the legs
/// Vehicle::CommitStops stores for the result.
size_t ApplyInsertionInto(Span<const Stop> stops, Span<const double> legs,
                          const Request& request,
                          const InsertionCandidate& candidate, Stop* out,
                          double* out_legs);

/// Materializes the stop sequence described by a feasible candidate.
Schedule ApplyInsertion(const Schedule& schedule, const Request& request,
                        const InsertionCandidate& candidate);

/// Convenience used by online dispatchers and benches: best insertion into
/// the vehicle's remaining schedule at time \p now, committed on success.
/// Returns the delta cost, or +infinity if no feasible insertion exists.
double TryInsertAndCommit(Vehicle* vehicle, const Request& request, double now,
                          TravelCostEngine* engine);

}  // namespace structride
