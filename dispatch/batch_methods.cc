// The batch comparison methods.
//
//  - GAS: shareability graph over the open pool (the shard's incrementally
//    maintained run graph, or rebuilt per batch with incremental_sharegraph
//    off), best-of-all-parents group enumeration per vehicle, then a
//    cost-per-rider greedy assignment.
//  - RTV: the request-trip-vehicle pipeline — the same enumeration but
//    exhaustive up to the ILP node cap, with every trip materialized (the
//    memory hog of Fig. 14) and an anytime assignment: penalty-folded
//    greedy over trips plus a per-request improvement pass standing in for
//    the ILP solve (degrading to the incumbent instead of blowing up).
//
// Each method enumerates into a persistent GroupingScratch
// (SchedulePool-backed), keys conflict sets through the RequestSoA id
// plane, and stages ordering/selection arrays in the batch arena — zero
// heap allocations per steady-state batch once pools are warm.

#include <algorithm>
#include <optional>

#include "dispatch/common.h"
#include "dispatch/dispatcher.h"
#include "util/logging.h"

namespace structride {
namespace {

// Instrumented bytes per enumerated (vehicle, group) candidate: the vehicle
// index plus the group record (the Fig.-14 accounting).
constexpr size_t kTripRecordBytes = sizeof(size_t) + kGroupRecordBytes;

// Shared base of the two graph-consuming batch methods: picks the round's
// share graph, keeps the pair-check books, and owns the grouping scratch.
class GraphBatchDispatcher : public Dispatcher {
 protected:
  using Dispatcher::Dispatcher;

  // The share graph for one round: the shard's engine-owned run builder
  // (closed requests already retired by lifecycle events; only the fresh
  // slice is folded in here), or, with DispatchConfig::incremental_sharegraph
  // off, \p local after a from-scratch rebuild over the whole pool — the
  // rebuild reference (DESIGN.md §7). Both paths yield the identical graph
  // over the open set; the incremental one just skips re-checking every
  // pair that already ran in an earlier round. The engine counts its run
  // builder's checks; a per-batch throwaway's are accumulated here. The
  // throwaway's per-batch rebuild allocates by design; the request copies
  // it folds in are staged in the batch arena.
  ShareGraphBuilder* RoundShareGraph(DispatchContext* ctx,
                                     std::optional<ShareGraphBuilder>* local,
                                     EpochArena* arena) {
    if (config_.incremental_sharegraph) {
      SR_CHECK(ctx->sharegraph != nullptr);
      ctx->sharegraph->SyncToPending(ctx->pending);
      return ctx->sharegraph;
    }
    local->emplace(ctx->engine, config_.sharegraph);
    const size_t n = ctx->pending.size();
    Request* copy = arena->AllocateArray<Request>(n);
    for (size_t i = 0; i < n; ++i) copy[i] = *ctx->pending[i];
    (*local)->AddRequests(Span<const Request>(copy, n));
    AddPairChecks((*local)->pair_checks());
    return &**local;
  }

  // The conflict-free greedy commit both methods end with: walks the
  // candidates order[0, count) and commits each one whose vehicle is still
  // free and whose members are all still open, if CommitStops accepts its
  // schedule. Returns the taken flags over the pending pool (batch arena).
  char* CommitGreedy(DispatchContext* ctx, const size_t* order, size_t count,
                     const size_t* cand_vehicle) {
    const FleetView& fleet = ctx->fleet;
    const RequestSoA* soa = ctx->pending_soa;
    char* used_vehicle = ctx->arena->AllocateArray<char>(fleet.size());
    std::fill(used_vehicle, used_vehicle + fleet.size(), 0);
    char* taken = ctx->arena->AllocateArray<char>(ctx->pending.size());
    std::fill(taken, taken + ctx->pending.size(), 0);
    for (size_t oi = 0; oi < count; ++oi) {
      const size_t ci = order[oi];
      const PooledGroup& g = scratch_.groups[ci];
      const size_t vi = cand_vehicle[ci];
      if (used_vehicle[vi]) continue;
      Span<const RequestId> members = scratch_.MembersOf(g);
      if (std::any_of(members.begin(), members.end(), [&](RequestId id) {
            return taken[soa->IndexOfId(id)];
          })) {
        continue;
      }
      if (!fleet[vi].CommitStops(scratch_.ScheduleOf(g), ctx->now,
                                 ctx->engine)) {
        continue;
      }
      used_vehicle[vi] = 1;
      for (RequestId id : members) {
        taken[soa->IndexOfId(id)] = 1;
        ctx->assigned.push_back(id);
      }
    }
    return taken;
  }

  /// The enumeration scratch: its pool and vectors stay warm across
  /// batches.
  GroupingScratch scratch_;
};

class GasDispatcher : public GraphBatchDispatcher {
 public:
  using GraphBatchDispatcher::GraphBatchDispatcher;

  void OnBatch(DispatchContext* ctx) override {
    const FleetView& fleet = ctx->fleet;
    if (ctx->pending.empty()) return;
    // The batch arena and SoA planes are the caller's (DESIGN.md §8).
    SR_CHECK(ctx->arena != nullptr && ctx->pending_soa != nullptr &&
             ctx->fleet_soa != nullptr);
    EpochArena* arena = ctx->arena;
    const FleetSoA* fsoa = ctx->fleet_soa;

    std::optional<ShareGraphBuilder> local;
    ShareGraphBuilder* builder = RoundShareGraph(ctx, &local, arena);

    GroupingOptions gopts = config_.grouping;
    gopts.insertion_order = InsertionOrderPolicy::kBestOfAllParents;
    gopts.max_group_size =
        std::min(gopts.max_group_size, config_.vehicle_capacity);

    scratch_.Reset();
    Span<const Request* const> pool(ctx->pending.data(), ctx->pending.size());
    PooledGroupingResult* per_vehicle =
        arena->AllocateArray<PooledGroupingResult>(fleet.size());
    size_t grouping_bytes = 0;
    for (size_t vi = 0; vi < fleet.size(); ++vi) {
      per_vehicle[vi] = PooledGroupingResult{};
      if (!fsoa->in_service[vi]) continue;  // downtime: no new work
      per_vehicle[vi] = EnumerateGroupsPooled(
          fleet[vi].route_state(ctx->now), fleet[vi].schedule().stops(),
          fleet[vi].legs(), pool, &builder->graph(), ctx->engine, gopts,
          &scratch_);
      grouping_bytes += PooledGroupingMemoryBytes(scratch_, per_vehicle[vi]);
    }
    const size_t num_cands = scratch_.groups.size();
    size_t* cand_vehicle = arena->AllocateArray<size_t>(num_cands);
    for (size_t vi = 0; vi < fleet.size(); ++vi) {
      for (size_t i = 0; i < per_vehicle[vi].count; ++i) {
        cand_vehicle[per_vehicle[vi].first_group + i] = vi;
      }
    }
    NotePeak(builder->MemoryBytes() + grouping_bytes +
             num_cands * kTripRecordBytes);

    // Deterministic candidate order: cost per rider, then vehicle, then
    // members. (key, vehicle, members) is unique per candidate (best-of-
    // all-parents dedups member sets per vehicle), so std::sort suffices.
    size_t* order = arena->AllocateArray<size_t>(num_cands);
    for (size_t i = 0; i < num_cands; ++i) order[i] = i;
    std::sort(order, order + num_cands, [&](size_t a, size_t b) {
      const PooledGroup& ga = scratch_.groups[a];
      const PooledGroup& gb = scratch_.groups[b];
      double ka = ga.delta_cost / static_cast<double>(ga.members_len);
      double kb = gb.delta_cost / static_cast<double>(gb.members_len);
      if (ka != kb) return ka < kb;
      if (cand_vehicle[a] != cand_vehicle[b]) {
        return cand_vehicle[a] < cand_vehicle[b];
      }
      Span<const RequestId> ma = scratch_.MembersOf(ga);
      Span<const RequestId> mb = scratch_.MembersOf(gb);
      return std::lexicographical_compare(ma.begin(), ma.end(), mb.begin(),
                                          mb.end());
    });

    CommitGreedy(ctx, order, num_cands, cand_vehicle);
  }
};

class RtvDispatcher : public GraphBatchDispatcher {
 public:
  using GraphBatchDispatcher::GraphBatchDispatcher;

  void OnBatch(DispatchContext* ctx) override {
    const FleetView& fleet = ctx->fleet;
    if (ctx->pending.empty()) return;
    // The batch arena and SoA planes are the caller's (DESIGN.md §8).
    SR_CHECK(ctx->arena != nullptr && ctx->pending_soa != nullptr &&
             ctx->fleet_soa != nullptr);
    EpochArena* arena = ctx->arena;
    const RequestSoA* soa = ctx->pending_soa;
    const FleetSoA* fsoa = ctx->fleet_soa;
    const size_t num_pending = ctx->pending.size();

    // RR edges (the shareability graph) and per-vehicle trip enumeration.
    std::optional<ShareGraphBuilder> local;
    ShareGraphBuilder* builder = RoundShareGraph(ctx, &local, arena);

    GroupingOptions gopts = config_.grouping;
    gopts.insertion_order = InsertionOrderPolicy::kBestOfAllParents;
    gopts.max_group_size = config_.vehicle_capacity;

    scratch_.Reset();
    Span<const Request* const> pool(ctx->pending.data(), ctx->pending.size());
    PooledGroupingResult* per_vehicle =
        arena->AllocateArray<PooledGroupingResult>(fleet.size());
    for (size_t vi = 0; vi < fleet.size(); ++vi) {
      per_vehicle[vi] = PooledGroupingResult{};
    }
    int64_t node_budget = config_.ilp_node_cap;
    for (size_t vi = 0; vi < fleet.size() && node_budget > 0; ++vi) {
      if (!fsoa->in_service[vi]) continue;  // downtime: no new work
      gopts.max_groups = static_cast<size_t>(node_budget);
      per_vehicle[vi] = EnumerateGroupsPooled(
          fleet[vi].route_state(ctx->now), fleet[vi].schedule().stops(),
          fleet[vi].legs(), pool, &builder->graph(), ctx->engine, gopts,
          &scratch_);
      node_budget -= static_cast<int64_t>(per_vehicle[vi].count);
    }
    const size_t num_trips = scratch_.groups.size();
    size_t* trip_vehicle = arena->AllocateArray<size_t>(num_trips);
    for (size_t vi = 0; vi < fleet.size(); ++vi) {
      for (size_t i = 0; i < per_vehicle[vi].count; ++i) {
        trip_vehicle[per_vehicle[vi].first_group + i] = vi;
      }
    }
    // Every trip materialized — the memory hog the figure is about.
    size_t trip_bytes = num_trips * kTripRecordBytes;
    for (const PooledGroup& g : scratch_.groups) {
      trip_bytes += g.members_len * sizeof(RequestId) +
                    scratch_.ScheduleOf(g).size() * sizeof(Stop);
    }
    NotePeak(builder->MemoryBytes() + trip_bytes);

    // The assignment objective folds the unassignment penalty in: picking a
    // trip saves penalty * sum(direct costs) against its extra travel, read
    // from the RequestSoA direct plane. Decorate-sort: one net cost per
    // trip, not one per comparison.
    double* net = arena->AllocateArray<double>(num_trips);
    size_t* order = arena->AllocateArray<size_t>(num_trips);
    for (size_t i = 0; i < num_trips; ++i) {
      const PooledGroup& g = scratch_.groups[i];
      double saved = 0;
      for (RequestId id : scratch_.MembersOf(g)) {
        saved += soa->direct[soa->IndexOfId(id)];
      }
      net[i] = g.delta_cost - config_.penalty_coefficient * saved;
      order[i] = i;
    }
    std::sort(order, order + num_trips, [&](size_t a, size_t b) {
      if (net[a] != net[b]) return net[a] < net[b];
      if (trip_vehicle[a] != trip_vehicle[b]) {
        return trip_vehicle[a] < trip_vehicle[b];
      }
      Span<const RequestId> ma = scratch_.MembersOf(scratch_.groups[a]);
      Span<const RequestId> mb = scratch_.MembersOf(scratch_.groups[b]);
      return std::lexicographical_compare(ma.begin(), ma.end(), mb.begin(),
                                          mb.end());
    });

    // A trip with net >= 0 cannot help, and the order is sorted by net, so
    // the commit walks only the prefix before the first such trip.
    const size_t helpful = static_cast<size_t>(
        std::find_if(order, order + num_trips,
                     [&](size_t ti) { return net[ti] >= 0; }) -
        order);
    char* taken = CommitGreedy(ctx, order, helpful, trip_vehicle);

    // Improvement pass (the anytime stand-in for the ILP): leftover requests
    // get a plain best-insertion over the whole fleet, including vehicles
    // already extended this round. The winning schedule is materialized
    // only once per committed request (ApplyInsertion issues no engine
    // queries, so deferring it past the scan changes nothing).
    for (size_t ri = 0; ri < num_pending; ++ri) {
      if (taken[ri]) continue;
      const Request& r = *ctx->pending[ri];
      double best = std::numeric_limits<double>::infinity();
      size_t best_vehicle = 0;
      InsertionCandidate best_cand;
      for (size_t vi = 0; vi < fleet.size(); ++vi) {
        if (!fsoa->in_service[vi]) continue;
        InsertionCandidate cand = BestInsertion(
            fleet[vi].route_state(ctx->now), fleet[vi].schedule().stops(),
            fleet[vi].legs(), r, ctx->engine);
        if (cand.feasible && cand.delta_cost < best) {
          best = cand.delta_cost;
          best_vehicle = vi;
          best_cand = cand;
        }
      }
      if (best < config_.penalty_coefficient * r.direct_cost) {
        ArenaScope scope(ScratchArena());
        const std::vector<Stop>& cur = fleet[best_vehicle].schedule().stops();
        Stop* staged = scope.AllocateArray<Stop>(cur.size() + 2);
        size_t len = ApplyInsertionInto(cur, r, best_cand, staged);
        if (fleet[best_vehicle].CommitStops({staged, len}, ctx->now,
                                            ctx->engine)) {
          taken[ri] = 1;
          ctx->assigned.push_back(r.id);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Dispatcher> MakeGas(const DispatchConfig& config) {
  return std::make_unique<GasDispatcher>(config);
}
std::unique_ptr<Dispatcher> MakeRtv(const DispatchConfig& config) {
  return std::make_unique<RtvDispatcher>(config);
}

}  // namespace structride
