#include "core/insertion.h"

#include <vector>

#include "util/arena.h"
#include "util/logging.h"

namespace structride {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Writes stops with the request's pickup spliced before original index i and
// the dropoff before original index j (i <= j <= stops.size()) into out,
// which must hold stops.size() + 2 and not alias stops. Returns the length.
inline size_t Splice(Span<const Stop> stops, const Request& request, size_t i,
                     size_t j, Stop* out) {
  size_t w = 0;
  for (size_t k = 0; k < i; ++k) out[w++] = stops[k];
  out[w++] = PickupStop(request);
  for (size_t k = i; k < j; ++k) out[w++] = stops[k];
  out[w++] = DropoffStop(request);
  for (size_t k = j; k < stops.size(); ++k) out[w++] = stops[k];
  return w;
}
}  // namespace

InsertionCandidate BestInsertion(const RouteState& state,
                                 Span<const Stop> stops,
                                 const Request& request,
                                 TravelCostEngine* engine,
                                 const InsertionOptions& options) {
  InsertionCandidate best;
  size_t n = stops.size();

  // Scratch: the base-walk planes plus one candidate buffer, parked on the
  // calling thread's scratch arena so pricing never touches the heap.
  ArenaScope scope(ScratchArena());
  double* base_time = scope.AllocateArray<double>(n);
  double* base_leg = scope.AllocateArray<double>(n);
  Stop* candidate = scope.AllocateArray<Stop>(n + 2);

  // Base walk: per-stop service times and leg costs (also the base cost the
  // delta is measured against).
  {
    double t = state.start_time;
    NodeId pos = state.start;
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      double leg = stops[k].node == pos ? 0.0 : engine->Cost(pos, stops[k].node);
      t += leg;
      total += leg;
      pos = stops[k].node;
      if (t > stops[k].deadline + 1e-7) return best;  // base already broken
      if (stops[k].kind == StopKind::kPickup && t < stops[k].earliest) {
        t = stops[k].earliest;
      }
      base_time[k] = t;
      base_leg[k] = leg;
    }
    best.total_cost = total;  // reused below as base cost
  }
  double base_cost = n == 0 ? 0 : best.total_cost;
  best.total_cost = kInf;

  const RoadNetwork& net = engine->network();
  const Point& src = net.position(request.source);
  const Point& dst = net.position(request.destination);
  auto node_pos = [&](size_t k) { return net.position(stops[k].node); };
  auto start_pos = [&] { return net.position(state.start); };

  // Euclidean lower bound on the extra cost of splicing point p between the
  // endpoints of original leg k (k == n appends after the last stop).
  auto detour_lb = [&](size_t k, const Point& p) {
    Point prev = k == 0 ? start_pos() : node_pos(k - 1);
    if (k == n) return EuclidDistance(prev, p);
    return EuclidDistance(prev, p) + EuclidDistance(p, node_pos(k)) -
           base_leg[k];
  };

  for (size_t i = 0; i <= n; ++i) {
    if (options.use_pruning) {
      // The vehicle reaches the pickup no earlier than the base time at the
      // preceding stop; once that alone misses the pickup deadline, every
      // later position misses it too.
      double prefix = i == 0 ? state.start_time : base_time[i - 1];
      if (prefix > request.latest_pickup + 1e-7) break;
      if (detour_lb(i, src) >= best.delta_cost) continue;
    }
    for (size_t j = i; j <= n; ++j) {
      if (options.use_pruning) {
        double lb;
        if (j == i) {
          // src then dst spliced into the same original leg i.
          Point prev = i == 0 ? start_pos() : node_pos(i - 1);
          lb = EuclidDistance(prev, src) + EuclidDistance(src, dst);
          if (i < n) lb += EuclidDistance(dst, node_pos(i)) - base_leg[i];
        } else {
          lb = detour_lb(i, src) + detour_lb(j, dst);
        }
        if (lb >= best.delta_cost) continue;
      }
      size_t len = Splice(stops, request, i, j, candidate);
      auto [ok, cost] = CheckSchedule(state, {candidate, len}, engine);
      if (!ok) continue;
      double delta = cost - base_cost;
      if (delta < best.delta_cost) {
        best.feasible = true;
        best.pickup_pos = i;
        best.dropoff_pos = j;
        best.delta_cost = delta;
        best.total_cost = cost;
      }
    }
  }
  return best;
}

InsertionCandidate BestInsertion(const RouteState& state,
                                 const Schedule& schedule,
                                 const Request& request,
                                 TravelCostEngine* engine,
                                 const InsertionOptions& options) {
  return BestInsertion(state, Span<const Stop>(schedule.stops()), request,
                       engine, options);
}

size_t ApplyInsertionInto(Span<const Stop> stops, const Request& request,
                          const InsertionCandidate& candidate, Stop* out) {
  SR_CHECK(candidate.feasible);
  SR_CHECK(candidate.pickup_pos <= candidate.dropoff_pos);
  SR_CHECK(candidate.dropoff_pos <= stops.size());
  return Splice(stops, request, candidate.pickup_pos, candidate.dropoff_pos,
                out);
}

Schedule ApplyInsertion(const Schedule& schedule, const Request& request,
                        const InsertionCandidate& candidate) {
  std::vector<Stop> out(schedule.size() + 2);
  ApplyInsertionInto(schedule.stops(), request, candidate, out.data());
  return Schedule(std::move(out));
}

double TryInsertAndCommit(Vehicle* vehicle, const Request& request, double now,
                          TravelCostEngine* engine) {
  InsertionCandidate cand = BestInsertion(vehicle->route_state(now),
                                          vehicle->schedule(), request, engine);
  if (!cand.feasible) return kInf;
  // Stage the committed sequence on the thread's scratch arena; CommitStops
  // copies it into the vehicle's retained storage.
  ArenaScope scope(ScratchArena());
  Stop* staged = scope.AllocateArray<Stop>(vehicle->schedule().size() + 2);
  size_t len =
      ApplyInsertionInto(vehicle->schedule().stops(), request, cand, staged);
  if (!vehicle->CommitStops({staged, len}, now, engine)) return kInf;
  return cand.delta_cost;
}

}  // namespace structride
