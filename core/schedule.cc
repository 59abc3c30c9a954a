#include "core/schedule.h"

#include <algorithm>

namespace structride {

namespace {
template <typename CostFn>
std::pair<bool, double> Walk(const RouteState& state,
                             Span<const Stop> stops, CostFn cost_fn) {
  WalkState walk = WalkState::At(state);
  for (const Stop& stop : stops) {
    if (!walk.Serve(stop, LegCost(walk.pos, stop.node, cost_fn),
                    state.capacity)) {
      return {false, walk.cost};
    }
  }
  return {true, walk.cost};
}
}  // namespace

std::pair<bool, double> CheckSchedule(const RouteState& state,
                                      Span<const Stop> stops,
                                      TravelCostEngine* engine) {
  return Walk(state, stops,
              [engine](NodeId a, NodeId b) { return engine->Cost(a, b); });
}

std::pair<bool, double> CheckScheduleLowerBound(
    const RouteState& state, Span<const Stop> stops,
    const TravelCostEngine* engine) {
  return Walk(state, stops, [engine](NodeId a, NodeId b) {
    return engine->LowerBound(a, b);
  });
}

std::pair<bool, double> CheckScheduleLandmarkBound(
    const RouteState& state, Span<const Stop> stops,
    const TravelCostEngine* engine) {
  return Walk(state, stops, [engine](NodeId a, NodeId b) {
    return std::max(engine->LowerBound(a, b),
                    engine->LandmarkLowerBound(a, b));
  });
}

}  // namespace structride
