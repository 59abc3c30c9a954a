#include "sharegraph/builder.h"

#include <algorithm>

#include "util/arena.h"
#include "util/logging.h"

namespace structride {

namespace {

// The four stop orders in which the two rides overlap (sequential service is
// not "sharing" and would make the graph near-complete).
constexpr int kJointOrders[4][4] = {
    // 0=pickup a, 1=pickup b, 2=dropoff a, 3=dropoff b
    {0, 1, 2, 3},
    {0, 1, 3, 2},
    {1, 0, 2, 3},
    {1, 0, 3, 2},
};

}  // namespace

template <typename WalkFn>
unsigned ShareGraphBuilder::OrdersPassing(const Request& a, const Request& b,
                                          unsigned orders, bool first_only,
                                          WalkFn walk) const {
  const Stop stops[4] = {PickupStop(a), PickupStop(b), DropoffStop(a),
                         DropoffStop(b)};
  RouteState state;
  // A pair needs two seats; a capacity-1 fleet shares nothing.
  state.capacity = std::min(2, options_.vehicle_capacity);
  unsigned passed = 0;
  for (unsigned k = 0; k < 4; ++k) {
    if ((orders >> k & 1u) == 0) continue;
    Stop sequence[4];
    for (int i = 0; i < 4; ++i) sequence[i] = stops[kJointOrders[k][i]];
    const Request& first = kJointOrders[k][0] == 0 ? a : b;
    state.start = first.source;
    state.start_time = first.release_time;
    if (!walk(state, Span<const Stop>(sequence, 4), engine_).first) continue;
    passed |= 1u << k;
    if (first_only) break;
  }
  return passed;
}

unsigned ShareGraphBuilder::ScreenOrders(const Request& a,
                                         const Request& b) const {
  // Pickup-reach test. Every joint order serves both pickups first, and the
  // straight-line walk reaches the leader's pickup at its release over a
  // zero leg, so its second step is exactly this deadline test: a leader
  // that misses the other pickup here fails both of its orders there.
  const double leg = LegCost(a.source, b.source, [this](NodeId u, NodeId v) {
    return engine_->LowerBound(u, v);
  });
  unsigned orders = 0;  // orders 0 and 1 lead with a, 2 and 3 with b
  if (!MissesDeadline(a.release_time + leg, b.latest_pickup)) orders |= 0x3;
  if (!MissesDeadline(b.release_time + leg, a.latest_pickup)) orders |= 0xC;
  if (orders == 0) return 0;
  // The landmark walk's legs are no shorter than the straight-line walk's,
  // so it only runs on the orders the cheaper walk kept.
  orders = OrdersPassing(a, b, orders, false, CheckScheduleLowerBound);
  if (orders == 0) return 0;
  return OrdersPassing(a, b, orders, false, CheckScheduleLandmarkBound);
}

bool ShareGraphBuilder::AnyOrderFeasible(const Request& a, const Request& b,
                                         unsigned orders) const {
  // An order either bound walk rejects fails the exact walk too, so only
  // the screened orders are priced.
  return OrdersPassing(a, b, orders, true, CheckSchedule) != 0;
}

void ShareGraphBuilder::AddRequests(Span<const Request> batch) {
  // graph_.Nodes() is the pairing order (see the member comment); reading
  // it first settles any pending removal tombstones, so the node adds
  // below are pure appends and the reference stays valid.
  const size_t first_new = graph_.Nodes().size();
  for (const Request& r : batch) {
    if (requests_.count(r.id)) continue;
    requests_[r.id] = r;
    graph_.AddNode(r.id);
  }
  const std::vector<RequestId>& order = graph_.Nodes();
  if (order.size() == first_new) return;

  // The live requests in pairing order, copied once per call so the pair
  // loops below read a flat array instead of hashing two ids per pair.
  // Scratch for this call only, so MemoryBytes() does not charge it.
  ArenaScope scope(ScratchArena());
  Request* live = scope.AllocateArray<Request>(order.size());
  for (size_t i = 0; i < order.size(); ++i) live[i] = requests_.at(order[i]);

  // One pass per new request against everything before it: screen, warm
  // up, check, add the edges. Edges therefore land in the canonical
  // (insertion-order) sequence.
  struct Survivor {
    const Request* partner;
    unsigned orders;  ///< the joint orders that passed every screen
  };
  for (size_t i = first_new; i < order.size(); ++i) {
    const Request& a = live[i];
    ArenaScope pass(ScratchArena());
    // Free screens first (no shortest-path queries), collecting the
    // survivors in pairing order: each one costs exactly one exact check.
    Survivor* survivors = pass.AllocateArray<Survivor>(i);
    size_t num_survivors = 0;
    for (size_t j = 0; j < i; ++j) {
      const Request& b = live[j];
      // Temporal screen: if one ride must end before the other exists, no
      // overlapping order can be feasible.
      if (a.release_time > b.deadline || b.release_time > a.deadline) continue;
      const unsigned orders = ScreenOrders(a, b);
      if (orders == 0) {
        ++pruned_pairs_;
        continue;
      }
      survivors[num_survivors++] = {&b, orders};
    }
    // Batched warm-up: every survivor has a joint order both bound walks
    // accept, so its leading rider makes its own pickup and the first exact
    // walk prices the leg to the other pickup before any other deadline can
    // fail — the (a.source, b.source) cost is queried for every survivor
    // regardless of which order wins. Fetching those legs back to back
    // keeps a's source pinned in the hub-label query across their misses,
    // and they are lookups the exact walks make anyway, so the query set —
    // and hence sp_queries — is unchanged.
    if (num_survivors > 1) {
      NodeId* pickups = pass.AllocateArray<NodeId>(num_survivors);
      double* warmed = pass.AllocateArray<double>(num_survivors);
      for (size_t k = 0; k < num_survivors; ++k) {
        pickups[k] = survivors[k].partner->source;
      }
      engine_->CostMany(a.source, {pickups, num_survivors}, warmed);
    }
    pair_checks_ += num_survivors;
    for (size_t k = 0; k < num_survivors; ++k) {
      const Survivor& s = survivors[k];
      if (AnyOrderFeasible(a, *s.partner, s.orders)) {
        graph_.AddEdge(a.id, s.partner->id);
      }
    }
  }
}

bool ShareGraphBuilder::RemoveRequest(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return false;
  graph_.RemoveNode(id);  // also retires the pairing-order slot
  requests_.erase(it);
  return true;
}

void ShareGraphBuilder::SyncToPending(
    const std::vector<const Request*>& pending) {
  // Arena internals (a sorted id array instead of a hash set, the drop and
  // fresh lists bump-allocated): a steady-state sync — everything retained,
  // nothing dropped, nothing fresh — touches the heap not at all. Ids are
  // unique, so the sorted array answers membership exactly.
  ArenaScope scope(ScratchArena());
  const size_t n = pending.size();
  RequestId* open_ids = scope.AllocateArray<RequestId>(n);
  for (size_t i = 0; i < n; ++i) open_ids[i] = pending[i]->id;
  std::sort(open_ids, open_ids + n);
  const std::vector<RequestId>& nodes = graph_.Nodes();
  RequestId* drop = scope.AllocateArray<RequestId>(nodes.size());
  size_t num_drop = 0;
  for (RequestId id : nodes) {
    if (!std::binary_search(open_ids, open_ids + n, id)) {
      drop[num_drop++] = id;
    }
  }
  for (size_t k = 0; k < num_drop; ++k) RemoveRequest(drop[k]);
  // The fresh slice; a steady round has none and AddRequests returns
  // before allocating anything.
  Request* fresh = scope.AllocateArray<Request>(n);
  size_t num_fresh = 0;
  for (const Request* r : pending) {
    if (!requests_.count(r->id)) fresh[num_fresh++] = *r;
  }
  AddRequests(Span<const Request>(fresh, num_fresh));
}

const Request& ShareGraphBuilder::request(RequestId id) const {
  auto it = requests_.find(id);
  SR_CHECK(it != requests_.end());
  return it->second;
}

size_t ShareGraphBuilder::MemoryBytes() const {
  size_t bytes = graph_.MemoryBytes();
  bytes += requests_.bucket_count() * sizeof(void*);
  bytes += requests_.size() * (sizeof(Request) + sizeof(RequestId) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace structride
