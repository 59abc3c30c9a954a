#include "sharegraph/builder.h"

#include <algorithm>

#include "util/arena.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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

ShareGraphBuilder::PairKey ShareGraphBuilder::MakeKey(RequestId a,
                                                      RequestId b) {
  return a < b ? PairKey{a, b} : PairKey{b, a};
}

size_t ShareGraphBuilder::PairKeyHasher::operator()(const PairKey& k) const {
  // Boost-style combine over the two 64-bit halves.
  size_t h = std::hash<RequestId>{}(k.lo);
  h ^= std::hash<RequestId>{}(k.hi) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  return h;
}

template <typename Check>
bool ShareGraphBuilder::AnyJointOrderFeasible(const Request& a,
                                              const Request& b,
                                              Check check) const {
  const Stop stops[4] = {PickupStop(a), PickupStop(b), DropoffStop(a),
                         DropoffStop(b)};
  Stop sequence[4];
  for (const auto& order : kJointOrders) {
    for (int k = 0; k < 4; ++k) sequence[static_cast<size_t>(k)] = stops[order[k]];
    const Request& first = order[0] == 0 ? a : b;
    RouteState state;
    state.start = first.source;
    state.start_time = first.release_time;
    // A pair needs two seats; a capacity-1 fleet shares nothing.
    state.capacity = std::min(2, options_.vehicle_capacity);
    if (check(state, Span<const Stop>(sequence, 4))) return true;
  }
  return false;
}

bool ShareGraphBuilder::Shareable(const Request& a, const Request& b) const {
  // An order the lower-bound walk rejects fails the exact walk too, so it is
  // skipped without pricing a leg.
  return AnyJointOrderFeasible(
      a, b, [this](const RouteState& state, Span<const Stop> stops) {
        return CheckScheduleLowerBound(state, stops, engine_).first &&
               CheckSchedule(state, stops, engine_).first;
      });
}

bool ShareGraphBuilder::CheckedShareable(RequestId a, RequestId b) {
  SR_CHECK(a != b);
  auto it = memo_.find(MakeKey(a, b));
  if (it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }
  bool shareable = Shareable(request(a), request(b));
  ++pair_checks_;
  RecordMemo(a, b, shareable);
  return shareable;
}

void ShareGraphBuilder::RecordMemo(RequestId a, RequestId b, bool shareable) {
  memo_[MakeKey(a, b)] = shareable;
  memo_partners_[a].push_back(b);
  memo_partners_[b].push_back(a);
}

bool ShareGraphBuilder::LowerBoundShareable(const Request& a,
                                            const Request& b) const {
  return AnyJointOrderFeasible(
      a, b, [this](const RouteState& state, Span<const Stop> stops) {
        return CheckScheduleLowerBound(state, stops, engine_).first;
      });
}

void ShareGraphBuilder::AddRequests(Span<const Request> batch) {
  // graph_.Nodes() is the pairing order (see the member comment); reading
  // it first settles any pending removal tombstones, so the node adds
  // below are pure appends and the reference stays valid for the tasks.
  const size_t first_new = graph_.Nodes().size();
  for (const Request& r : batch) {
    if (requests_.count(r.id)) continue;
    requests_[r.id] = r;
    graph_.AddNode(r.id);
  }
  const std::vector<RequestId>& order = graph_.Nodes();
  const size_t num_new = order.size() - first_new;
  if (num_new == 0) return;

  // Phase 1 — evaluate pair feasibility, one task per new request against
  // everything before it. Tasks only read builder state (the memo included —
  // no writer runs concurrently) and write their own slot, and the pair
  // checks are mutually independent, so running them on the pool changes
  // neither the accepted edges nor the set of travel-cost pairs queried.
  struct Verdict {
    RequestId partner = 0;
    bool shareable = false;
    bool from_memo = false;
  };
  // Per task, verdicts in partner (insertion) order — memo answers and
  // exact checks interleaved exactly where the serial loop would have
  // produced them, so the committed adjacency sequence is independent of
  // how each verdict was obtained.
  std::vector<std::vector<Verdict>> verdicts(num_new);
  std::vector<uint64_t> pruned(num_new, 0);
  auto check_new_request = [&](size_t task) {
    const size_t i = first_new + task;
    const Request& a = requests_.at(order[i]);
    std::vector<Verdict>& list = verdicts[task];
    // Free screens first (no shortest-path queries), collecting survivors.
    std::vector<const Request*> candidates;
    std::vector<size_t> pending_slot;  // list index awaiting its exact check
    for (size_t j = 0; j < i; ++j) {
      const Request& b = requests_.at(order[j]);
      // Temporal screen: if one ride must end before the other exists, no
      // overlapping order can be feasible.
      if (a.release_time > b.deadline || b.release_time > a.deadline) continue;
      // Lower-bound screen: no joint order survives even straight-line legs.
      if (!LowerBoundShareable(a, b)) {
        ++pruned[task];
        continue;
      }
      // Per-lifetime memo: a pair already exact-checked while both requests
      // were present answers for free. Never hits on the engine's event
      // flow (a pair is presented once per lifetime by construction) —
      // it guards re-presentations, e.g. hand-driven sync sequences. An
      // empty memo (throwaway builders never record) skips the lookup.
      if (!memo_.empty()) {
        auto mt = memo_.find(MakeKey(a.id, b.id));
        if (mt != memo_.end()) {
          list.push_back({b.id, mt->second, /*from_memo=*/true});
          continue;
        }
      }
      pending_slot.push_back(list.size());
      list.push_back({b.id, false, /*from_memo=*/false});
      candidates.push_back(&b);
    }
    // Batched warm-up: every candidate has a joint order the lower-bound
    // walk accepts, so its leading rider makes its own pickup and Shareable's
    // first exact walk prices the leg to the other pickup before any other
    // deadline can fail — the (a.source, b.source) cost is queried for every
    // candidate regardless of which order wins. Fetching those legs
    // one-to-many pins a's source label once; CostMany's per-target cache
    // fill/count keeps the query set — and hence sp_queries — identical to
    // the point-to-point path.
    if (candidates.size() > 1) {
      std::vector<NodeId> pickups;
      pickups.reserve(candidates.size());
      for (const Request* b : candidates) pickups.push_back(b->source);
      std::vector<double> warmed(pickups.size());
      engine_->CostMany(a.source, {pickups.data(), pickups.size()},
                        warmed.data());
    }
    for (size_t k = 0; k < candidates.size(); ++k) {
      list[pending_slot[k]].shareable = Shareable(a, *candidates[k]);
    }
  };
  if (pool_ != nullptr && num_new > 1) {
    pool_->ParallelFor(num_new, check_new_request);
  } else {
    for (size_t task = 0; task < num_new; ++task) check_new_request(task);
  }

  // Phase 2 — commit serially in canonical order: edge lists and the memo
  // come out in the exact sequence the serial loop would have produced.
  for (size_t task = 0; task < num_new; ++task) {
    pruned_pairs_ += pruned[task];
    const RequestId a_id = order[first_new + task];
    for (const Verdict& v : verdicts[task]) {
      if (v.from_memo) {
        ++memo_hits_;
      } else {
        ++pair_checks_;
        if (memoize_pairs_) RecordMemo(a_id, v.partner, v.shareable);
      }
      if (v.shareable) graph_.AddEdge(a_id, v.partner);
    }
  }
}

bool ShareGraphBuilder::RemoveRequest(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return false;
  // End of lifetime: purge the pair memo through the reverse partner index,
  // both directions, so the index mirrors the memo exactly and the whole
  // structure stays proportional to the live pair set (a request that
  // outlives thousands of retired partners must not accumulate their ids).
  // O(sum of the partners' memo degrees) — degree-bounded like the graph.
  auto mp = memo_partners_.find(id);
  if (mp != memo_partners_.end()) {
    for (RequestId partner : mp->second) {
      memo_.erase(MakeKey(id, partner));
      auto pp = memo_partners_.find(partner);
      if (pp != memo_partners_.end()) {
        auto& back = pp->second;
        back.erase(std::remove(back.begin(), back.end(), id), back.end());
        if (back.empty()) memo_partners_.erase(pp);
      }
    }
    memo_partners_.erase(id);
  }
  graph_.RemoveNode(id);  // also retires the pairing-order slot
  requests_.erase(it);
  return true;
}

void ShareGraphBuilder::RemoveRequests(const std::vector<RequestId>& ids) {
  for (RequestId id : ids) RemoveRequest(id);
}

void ShareGraphBuilder::Retain(Span<const RequestId> keep) {
  // Arena internals (a sorted keep array instead of a hash set, the drop
  // list bump-allocated): a steady-state sync — everything retained,
  // nothing dropped — touches the heap not at all. Ids are unique, so the
  // sorted array answers membership exactly like the set did.
  ArenaScope scope(ScratchArena());
  RequestId* sorted = scope.AllocateArray<RequestId>(keep.size());
  std::copy(keep.begin(), keep.end(), sorted);
  std::sort(sorted, sorted + keep.size());
  const std::vector<RequestId>& nodes = graph_.Nodes();
  RequestId* drop = scope.AllocateArray<RequestId>(nodes.size());
  size_t num_drop = 0;
  for (RequestId id : nodes) {
    if (!std::binary_search(sorted, sorted + keep.size(), id)) {
      drop[num_drop++] = id;
    }
  }
  for (size_t k = 0; k < num_drop; ++k) RemoveRequest(drop[k]);
}

void ShareGraphBuilder::SyncToPending(
    const std::vector<const Request*>& pending) {
  ArenaScope scope(ScratchArena());
  RequestId* open_ids = scope.AllocateArray<RequestId>(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) open_ids[i] = pending[i]->id;
  Retain({static_cast<const RequestId*>(open_ids), pending.size()});
  // The fresh slice, staged on the arena; a steady round has none and
  // AddRequests returns before allocating anything.
  Request* fresh = scope.AllocateArray<Request>(pending.size());
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
  bytes += memo_.bucket_count() * sizeof(void*);
  bytes += memo_.size() * (sizeof(PairKey) + sizeof(bool) + 2 * sizeof(void*));
  bytes += memo_partners_.bucket_count() * sizeof(void*);
  for (const auto& [id, partners] : memo_partners_) {
    (void)id;
    bytes += sizeof(RequestId) + sizeof(std::vector<RequestId>) +
             2 * sizeof(void*) + partners.capacity() * sizeof(RequestId);
  }
  return bytes;
}

}  // namespace structride
