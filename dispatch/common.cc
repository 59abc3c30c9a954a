#include "dispatch/common.h"

namespace structride {
namespace dispatch {

PooledGroupInsertion InsertGroupSequentialPooled(
    const RouteState& state, Span<const Stop> committed,
    Span<const Request* const> members, TravelCostEngine* engine,
    EpochArena* arena) {
  PooledGroupInsertion out;
  const size_t final_len = committed.size() + 2 * members.size();
  Stop* bufs[2] = {arena->AllocateArray<Stop>(final_len),
                   arena->AllocateArray<Stop>(final_len)};
  Span<const Stop> cur = committed;
  int which = 0;
  double delta = 0;
  for (const Request* r : members) {
    InsertionCandidate cand = BestInsertion(state, cur, *r, engine);
    if (!cand.feasible) return out;
    size_t len = ApplyInsertionInto(cur, *r, cand, bufs[which]);
    cur = {bufs[which], len};
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
