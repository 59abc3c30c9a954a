#include "dispatch/common.h"

#include "dispatch/spatial_index.h"
#include "util/logging.h"

namespace structride {
namespace dispatch {

namespace {

// The index answers fleet-storage indices; a restricted view translates
// each in O(1) through its plane's ranks, and its members are ascending, so
// the translation keeps the (distance, index) order.
size_t ToViewLocal(const FleetView& fleet, size_t count, size_t* out) {
  if (fleet.restricted()) {
    for (size_t i = 0; i < count; ++i) out[i] = fleet.local_index(out[i]);
  }
  return count;
}

}  // namespace

size_t NearestVehiclesInto(const DispatchContext& ctx, NodeId from, size_t k,
                           size_t* out) {
  SR_CHECK(ctx.fleet_index != nullptr);
  return ToViewLocal(
      ctx.fleet,
      ctx.fleet_index->KNearestInto(from, k, ctx.fleet_shard, out), out);
}

size_t NearestVehiclesWithinInto(const DispatchContext& ctx, NodeId from,
                                 size_t k, double max_dist, size_t* out) {
  SR_CHECK(ctx.fleet_index != nullptr);
  return ToViewLocal(ctx.fleet,
                     ctx.fleet_index->KNearestWithinInto(
                         from, k, max_dist, ctx.fleet_shard, out),
                     out);
}

PooledGroupInsertion InsertGroupSequentialPooled(
    const RouteState& state, Span<const Stop> committed,
    Span<const double> committed_legs, Span<const Request* const> members,
    TravelCostEngine* engine, EpochArena* arena) {
  PooledGroupInsertion out;
  const size_t final_len = committed.size() + 2 * members.size();
  Stop* bufs[2] = {arena->AllocateArray<Stop>(final_len),
                   arena->AllocateArray<Stop>(final_len)};
  double* leg_bufs[2] = {arena->AllocateArray<double>(final_len),
                         arena->AllocateArray<double>(final_len)};
  Span<const Stop> cur = committed;
  Span<const double> cur_legs = committed_legs;
  int which = 0;
  double delta = 0;
  for (const Request* r : members) {
    InsertionCandidate cand = BestInsertion(state, cur, cur_legs, *r, engine);
    if (!cand.feasible) return out;
    size_t len = ApplyInsertionInto(cur, cur_legs, *r, cand, bufs[which],
                                    leg_bufs[which]);
    cur = {bufs[which], len};
    cur_legs = {leg_bufs[which], len};
    which ^= 1;
    delta += cand.delta_cost;
  }
  out.feasible = true;
  out.delta_cost = delta;
  out.stops = cur.data();
  out.len = cur.size();
  return out;
}

}  // namespace dispatch
}  // namespace structride
