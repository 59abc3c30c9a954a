#include "core/insertion.h"

#include <vector>

#include "util/arena.h"
#include "util/logging.h"

namespace structride {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Writes base with `pickup` spliced before original index i and `dropoff`
// before original index j (i <= j <= base.size()) into out, which must hold
// base.size() + 2 and not alias base. Returns the length.
template <typename T>
size_t Splice(Span<const T> base, size_t i, size_t j, const T& pickup,
              const T& dropoff, T* out) {
  size_t w = 0;
  for (size_t k = 0; k < i; ++k) out[w++] = base[k];
  out[w++] = pickup;
  for (size_t k = i; k < j; ++k) out[w++] = base[k];
  out[w++] = dropoff;
  for (size_t k = j; k < base.size(); ++k) out[w++] = base[k];
  return w;
}

// The base walk of one BestInsertion call: the walk state before every
// original stop (state[n] is the state after the last) and the leg into
// every original stop.
struct BaseWalk {
  Span<const Stop> stops;
  const WalkState* state;
  const double* leg;
  int capacity;

  // Walks the splice (i, j) — pickup before original stop i, dropoff before
  // original stop j — from state[i], so the unchanged prefix costs nothing.
  // The legs the splice adds are priced by leg_fn one at a time, in
  // CheckSchedule's order, and recorded in *added; every other leg is read
  // from the base plane. Returns false at the first violation; otherwise
  // *end is the state after the last stop.
  template <typename LegFn>
  bool WalkSplice(const Stop& pickup, const Stop& dropoff, size_t i, size_t j,
                  LegFn&& leg_fn, WalkState* end,
                  InsertionCandidate::AddedLegs* added) const {
    WalkState walk = state[i];
    auto added_leg = [&](const Stop& stop, double* record) {
      *record = LegCost(walk.pos, stop.node, leg_fn);
      return walk.Serve(stop, *record, capacity);
    };
    auto base_legs = [&](size_t from, size_t to) {
      for (size_t k = from; k < to; ++k) {
        if (!walk.Serve(stops[k], leg[k], capacity)) return false;
      }
      return true;
    };
    if (!added_leg(pickup, &added->into_pickup)) return false;
    if (i < j && !(added_leg(stops[i], &added->after_pickup) &&
                   base_legs(i + 1, j))) {
      return false;
    }
    if (!added_leg(dropoff, &added->into_dropoff)) return false;
    if (j < stops.size() && !(added_leg(stops[j], &added->after_dropoff) &&
                              base_legs(j + 1, stops.size()))) {
      return false;
    }
    *end = walk;
    return true;
  }
};
}  // namespace

InsertionCandidate BestInsertion(const RouteState& state,
                                 Span<const Stop> stops,
                                 Span<const double> legs,
                                 const Request& request,
                                 TravelCostEngine* engine) {
  InsertionCandidate best;
  const size_t n = stops.size();
  SR_CHECK(legs.empty() || legs.size() == n);
  auto cost = [engine](NodeId a, NodeId b) { return engine->Cost(a, b); };
  auto lower_bound = [engine](NodeId a, NodeId b) {
    return engine->LowerBound(a, b);
  };

  // Scratch: the base-walk planes, parked on the calling thread's scratch
  // arena so pricing never touches the heap. Legs are looked up only when
  // the caller has none.
  ArenaScope scope(ScratchArena());
  WalkState* base_state = scope.AllocateArray<WalkState>(n + 1);
  double* looked_up = legs.empty() ? scope.AllocateArray<double>(n) : nullptr;
  const BaseWalk base{stops, base_state,
                      looked_up != nullptr ? looked_up : legs.data(),
                      state.capacity};

  // Base walk: the state before every stop, and the base cost the delta is
  // measured against.
  WalkState walk = WalkState::At(state);
  for (size_t k = 0; k < n; ++k) {
    base_state[k] = walk;
    if (looked_up != nullptr) {
      looked_up[k] = LegCost(walk.pos, stops[k].node, cost);
    }
    if (!walk.Serve(stops[k], base.leg[k], state.capacity)) {
      return best;  // base already broken
    }
  }
  base_state[n] = walk;
  const double base_cost = walk.cost;

  const RoadNetwork& net = engine->network();
  const Point& src = net.position(request.source);
  const Point& dst = net.position(request.destination);
  const Stop pickup = PickupStop(request);
  const Stop dropoff = DropoffStop(request);

  // Euclidean lower bound on the extra cost of splicing point p between the
  // endpoints of original leg k (k == n appends after the last stop).
  auto detour_lb = [&](size_t k, const Point& p) {
    const Point& prev = net.position(base_state[k].pos);
    if (k == n) return EuclidDistance(prev, p);
    return EuclidDistance(prev, p) +
           EuclidDistance(p, net.position(stops[k].node)) - base.leg[k];
  };

  for (size_t i = 0; i <= n; ++i) {
    // The vehicle reaches the pickup no earlier than it is free at the
    // preceding stop; once that alone misses the pickup deadline, every
    // later position misses it too.
    if (MissesDeadline(base_state[i].time, request.latest_pickup)) break;
    if (detour_lb(i, src) >= best.delta_cost) continue;
    for (size_t j = i; j <= n; ++j) {
      double lb;
      if (j == i) {
        // src then dst spliced into the same original leg i.
        lb = EuclidDistance(net.position(base_state[i].pos), src) +
             EuclidDistance(src, dst);
        if (i < n) {
          lb += EuclidDistance(dst, net.position(stops[i].node)) - base.leg[i];
        }
      } else {
        lb = detour_lb(i, src) + detour_lb(j, dst);
      }
      if (lb >= best.delta_cost) continue;
      // Straight-line legs first: arrival times only grow with leg costs
      // and straight-line distance never exceeds road cost (DESIGN.md §1),
      // so a splice late under them is late on the road too — rejected
      // with zero lookups.
      WalkState end;
      InsertionCandidate::AddedLegs added;
      if (!base.WalkSplice(pickup, dropoff, i, j, lower_bound, &end, &added) ||
          !base.WalkSplice(pickup, dropoff, i, j, cost, &end, &added)) {
        continue;
      }
      const double delta = end.cost - base_cost;
      if (delta < best.delta_cost) {
        best.feasible = true;
        best.pickup_pos = i;
        best.dropoff_pos = j;
        best.delta_cost = delta;
        best.total_cost = end.cost;
        best.added = added;
      }
    }
  }
  return best;
}

InsertionCandidate BestInsertion(const RouteState& state,
                                 const Schedule& schedule,
                                 const Request& request,
                                 TravelCostEngine* engine) {
  return BestInsertion(state, Span<const Stop>(schedule.stops()), {}, request,
                       engine);
}

size_t ApplyInsertionInto(Span<const Stop> stops, const Request& request,
                          const InsertionCandidate& candidate, Stop* out) {
  SR_CHECK(candidate.feasible);
  SR_CHECK(candidate.pickup_pos <= candidate.dropoff_pos);
  SR_CHECK(candidate.dropoff_pos <= stops.size());
  return Splice(stops, candidate.pickup_pos, candidate.dropoff_pos,
                PickupStop(request), DropoffStop(request), out);
}

size_t ApplyInsertionInto(Span<const Stop> stops, Span<const double> legs,
                          const Request& request,
                          const InsertionCandidate& candidate, Stop* out,
                          double* out_legs) {
  SR_CHECK(legs.size() == stops.size());
  const size_t i = candidate.pickup_pos;
  const size_t j = candidate.dropoff_pos;
  const size_t len = ApplyInsertionInto(stops, request, candidate, out);
  const InsertionCandidate::AddedLegs& added = candidate.added;
  Splice(legs, i, j, added.into_pickup, added.into_dropoff, out_legs);
  if (i < j) out_legs[i + 1] = added.after_pickup;
  if (j < stops.size()) out_legs[j + 2] = added.after_dropoff;
  return len;
}

Schedule ApplyInsertion(const Schedule& schedule, const Request& request,
                        const InsertionCandidate& candidate) {
  std::vector<Stop> out(schedule.size() + 2);
  ApplyInsertionInto(schedule.stops(), request, candidate, out.data());
  return Schedule(std::move(out));
}

double TryInsertAndCommit(Vehicle* vehicle, const Request& request, double now,
                          TravelCostEngine* engine) {
  InsertionCandidate cand =
      BestInsertion(vehicle->route_state(now), vehicle->schedule().stops(),
                    vehicle->legs(), request, engine);
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
