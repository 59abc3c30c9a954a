// The linear insertion operator (Sec. IV-A): place one request's pickup and
// dropoff into an existing stop sequence at minimum extra travel cost. The
// optional pruning skips position pairs whose Euclidean detour lower bound
// already exceeds the incumbent, without ever changing the result.

#pragma once

#include <limits>

#include "core/schedule.h"
#include "core/vehicle.h"
#include "util/span.h"

namespace structride {

struct InsertionOptions {
  bool use_pruning = true;
};

struct InsertionCandidate {
  bool feasible = false;
  /// Pickup goes before original stop index pickup_pos; dropoff before
  /// original stop index dropoff_pos (>= pickup_pos; equal means the dropoff
  /// immediately follows the pickup).
  size_t pickup_pos = 0;
  size_t dropoff_pos = 0;
  double delta_cost = std::numeric_limits<double>::infinity();
  double total_cost = std::numeric_limits<double>::infinity();
};

/// Best feasible insertion of \p request into the stop sequence \p stops
/// evaluated from \p state; infeasible candidate if none exists. The span
/// form is the core operator — pooled schedules (SchedulePool views, arena
/// blocks) price without materializing a Schedule.
InsertionCandidate BestInsertion(const RouteState& state,
                                 Span<const Stop> stops,
                                 const Request& request,
                                 TravelCostEngine* engine,
                                 const InsertionOptions& options = {});

/// Schedule-facing convenience wrapper over the span form.
InsertionCandidate BestInsertion(const RouteState& state,
                                 const Schedule& schedule,
                                 const Request& request,
                                 TravelCostEngine* engine,
                                 const InsertionOptions& options = {});

/// Writes the stop sequence described by a feasible candidate into \p out
/// (room for stops.size() + 2 required; \p out must not alias \p stops).
/// Returns the written length.
size_t ApplyInsertionInto(Span<const Stop> stops, const Request& request,
                          const InsertionCandidate& candidate, Stop* out);

/// Materializes the stop sequence described by a feasible candidate.
Schedule ApplyInsertion(const Schedule& schedule, const Request& request,
                        const InsertionCandidate& candidate);

/// Convenience used by online dispatchers and benches: best insertion into
/// the vehicle's remaining schedule at time \p now, committed on success.
/// Returns the delta cost, or +infinity if no feasible insertion exists.
double TryInsertAndCommit(Vehicle* vehicle, const Request& request, double now,
                          TravelCostEngine* engine);

}  // namespace structride
