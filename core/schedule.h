// Stop sequences and their feasibility/cost evaluation — the shared
// currency of every insertion operator, grouping enumerator and dispatcher.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/request.h"
#include "roadnet/travel_cost.h"
#include "util/span.h"

namespace structride {

enum class StopKind { kPickup, kDropoff };

struct Stop {
  RequestId request = 0;
  NodeId node = 0;
  StopKind kind = StopKind::kPickup;
  double earliest = 0;  ///< pickups: release time (vehicle waits if early)
  double deadline = 0;  ///< pickups: latest pickup; dropoffs: latest dropoff
};

inline Stop PickupStop(const Request& r) {
  return {r.id, r.source, StopKind::kPickup, r.release_time, r.latest_pickup};
}
inline Stop DropoffStop(const Request& r) {
  return {r.id, r.destination, StopKind::kDropoff, 0, r.deadline};
}

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::vector<Stop> stops) : stops_(std::move(stops)) {}

  const std::vector<Stop>& stops() const { return stops_; }
  std::vector<Stop>& mutable_stops() { return stops_; }
  bool empty() const { return stops_.empty(); }
  size_t size() const { return stops_.size(); }

 private:
  std::vector<Stop> stops_;
};

/// The vehicle-side context a schedule is evaluated against: where the
/// vehicle is, when it is free there, how many seats it has and how many are
/// already occupied by riders whose dropoffs appear in the schedule.
struct RouteState {
  NodeId start = 0;
  double start_time = 0;
  int capacity = 0;
  int onboard = 0;
};

/// Slack on every deadline comparison: arrival times are sums of
/// floating-point legs, so a stop reached exactly on its deadline must not
/// fail on the last ulp.
inline constexpr double kDeadlineTolerance = 1e-7;

/// True when reaching a stop at \p time misses \p deadline.
inline bool MissesDeadline(double time, double deadline) {
  return time > deadline + kDeadlineTolerance;
}

/// Cost of the leg from \p from to \p to under \p cost_fn. A leg that stays
/// on its node is free and never reaches \p cost_fn, so walks under any
/// metric look up exactly the same pairs.
template <typename CostFn>
double LegCost(NodeId from, NodeId to, CostFn&& cost_fn) {
  return from == to ? 0.0 : cost_fn(from, to);
}

/// A schedule walk between two stops: where the vehicle is, when it is free
/// there, the travel cost so far and the seats taken. Every walk —
/// CheckSchedule, both lower-bound walks, both BestInsertion walks and
/// Vehicle::CommitStops — advances through Serve, the one copy of the stop
/// rule, so they agree bit for bit on times, costs and verdicts.
struct WalkState {
  NodeId pos = 0;
  double time = 0;
  double cost = 0;
  int load = 0;

  static WalkState At(const RouteState& state) {
    return {state.start, state.start_time, 0, state.onboard};
  }

  /// The stop rule: travel \p leg to \p stop, check its deadline, wait at
  /// an early pickup, count the seat. Returns false on a missed deadline or
  /// a seat over \p capacity (the state is then partly advanced).
  bool Serve(const Stop& stop, double leg, int capacity) {
    time += leg;
    cost += leg;
    pos = stop.node;
    if (MissesDeadline(time, stop.deadline)) return false;
    if (stop.kind == StopKind::kPickup) {
      if (time < stop.earliest) time = stop.earliest;
      return ++load <= capacity;
    }
    --load;
    return true;
  }
};

/// Simulates the stop sequence from \p state: waits at early pickups,
/// enforces every deadline and the seat capacity. Returns {feasible,
/// total travel cost}; on infeasibility the cost is the partial cost up to
/// the violation (useful only for diagnostics). Takes a span so pooled
/// stop sequences (SchedulePool views, arena scratch) evaluate without a
/// vector round-trip; std::vector<Stop> converts implicitly.
std::pair<bool, double> CheckSchedule(const RouteState& state,
                                      Span<const Stop> stops,
                                      TravelCostEngine* engine);

/// Same simulation under the Euclidean lower-bound metric — no shortest-path
/// queries. If this returns false the schedule is infeasible under the real
/// metric too (costs only grow), which is what makes the angle/insertion
/// pruning sound.
std::pair<bool, double> CheckScheduleLowerBound(const RouteState& state,
                                                Span<const Stop> stops,
                                                const TravelCostEngine* engine);

/// Same simulation with each leg at the larger of the straight-line and the
/// landmark bound (TravelCostEngine::LandmarkLowerBound) — still no
/// shortest-path queries. Every leg lies between the straight-line leg and
/// the road leg, so this walk rejects whatever CheckScheduleLowerBound
/// rejects, and whatever it rejects fails CheckSchedule too.
std::pair<bool, double> CheckScheduleLandmarkBound(
    const RouteState& state, Span<const Stop> stops,
    const TravelCostEngine* engine);

}  // namespace structride
