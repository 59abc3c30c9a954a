// SARD: the paper's structure-aware ridesharing dispatcher. Per batch:
// fold the new requests into the shard's engine-owned shareability graph
// (Alg. 1, every pair screened by the lower-bound walks that make SARD-O's
// angle pruning lossless — SARD-O is an alias), partition the open
// requests into capacity-bounded cliques (the grouping stage), then run
// the proposal/acceptance stage (Alg. 3): each group is proposed to nearby
// vehicles, each vehicle prices the group by linear insertion in ascending
// shareability order (Sec. IV-A) and the first accepting vehicle commits.
//
// Every group is priced against the batch-start fleet state first, then
// the commits run in deterministic group order with re-validation. Both
// run on the calling thread: pooled pricing and pair checks did not pay
// for their code on any benchmark workload (DESIGN.md §4, deviation 9).
// Groups every vehicle rejects are retried as halves down to singletons
// (DispatchConfig::sard_split_rejected_groups), because the clique
// partition would otherwise re-form the identical group next batch and
// starve its members. A first half keeps its group's anchor and the fleet
// index does not change within a round, so it reuses the group's
// candidate list instead of querying again.
//
// The batch stages the induced subgraph, clique partition, member order
// and proposal slots as flat arrays in the batch arena and prices groups
// through InsertGroupSequentialPooled (thread-scratch ping-pong buffers) —
// zero heap allocations per steady-state batch once pools are warm.

#include <algorithm>

#include "dispatch/common.h"
#include "dispatch/dispatcher.h"
#include "util/logging.h"

namespace structride {
namespace {

class SardDispatcher : public Dispatcher {
 public:
  using Dispatcher::Dispatcher;

 private:
  static constexpr size_t kCandidateVehicles = 16;

  struct Proposal {
    double delta = 0;
    size_t vehicle = 0;
  };

 public:
  void OnBatch(DispatchContext* ctx) override {
    if (ctx->pending.empty()) return;

    // The shard's run builder (DESIGN.md §7): lifecycle events already
    // retired closed requests, so the sync folds the fresh slice in.
    SR_CHECK(ctx->sharegraph != nullptr);
    ShareGraphBuilder* builder = ctx->sharegraph;
    builder->SyncToPending(ctx->pending);

    // SoA view of the pending pool (id -> pool-index without a hash map)
    // and the batch arena, both owned by the caller.
    SR_CHECK(ctx->pending_soa != nullptr && ctx->arena != nullptr);
    const RequestSoA* soa = ctx->pending_soa;
    EpochArena* arena = ctx->arena;
    const size_t num_pending = ctx->pending.size();

    // Induced share subgraph over the open requests as a CSR adjacency in
    // the batch arena (assigned/expired nodes fall out naturally because
    // only pending ids resolve through IndexOfId). Each adjacency run is
    // sorted so membership tests are binary searches; no decision below
    // depends on adjacency order beyond the edge set.
    size_t* deg = arena->AllocateArray<size_t>(num_pending);
    size_t* offsets = arena->AllocateArray<size_t>(num_pending + 1);
    size_t num_adj = 0;
    for (size_t i = 0; i < num_pending; ++i) {
      size_t d = 0;
      for (RequestId nb : builder->graph().Neighbors(soa->id[i])) {
        if (soa->IndexOfId(nb) >= 0) ++d;
      }
      deg[i] = d;
      offsets[i] = num_adj;
      num_adj += d;
    }
    offsets[num_pending] = num_adj;
    size_t* adj = arena->AllocateArray<size_t>(num_adj);
    for (size_t i = 0; i < num_pending; ++i) {
      size_t w = offsets[i];
      for (RequestId nb : builder->graph().Neighbors(soa->id[i])) {
        int64_t j = soa->IndexOfId(nb);
        if (j >= 0) adj[w++] = static_cast<size_t>(j);
      }
      std::sort(adj + offsets[i], adj + offsets[i] + deg[i]);
    }
    auto has_edge = [&](size_t a, size_t b) {
      return std::binary_search(adj + offsets[a], adj + offsets[a + 1], b);
    };

    // GreedyCliquePartition on the flat representation. Seeds in ascending
    // (degree, id) order; each clique grows by the eligible neighbor of its
    // seed minimizing (degree, id). Both rules are min-over-a-set, so they
    // are independent of adjacency order, and (degree, id) is a total order
    // (ids unique), so std::sort is deterministic.
    int raw_bound = std::min(config_.vehicle_capacity,
                             config_.grouping.max_group_size);
    const size_t bound = static_cast<size_t>(raw_bound > 0 ? raw_bound : 1);
    size_t* order = arena->AllocateArray<size_t>(num_pending);
    for (size_t i = 0; i < num_pending; ++i) order[i] = i;
    std::sort(order, order + num_pending, [&](size_t a, size_t b) {
      if (deg[a] != deg[b]) return deg[a] < deg[b];
      return soa->id[a] < soa->id[b];
    });
    char* taken = arena->AllocateArray<char>(num_pending);
    std::fill(taken, taken + num_pending, 0);
    size_t* members = arena->AllocateArray<size_t>(num_pending);
    size_t* group_first = arena->AllocateArray<size_t>(num_pending);
    size_t* group_len = arena->AllocateArray<size_t>(num_pending);
    size_t num_groups = 0, num_members = 0;
    for (size_t si = 0; si < num_pending; ++si) {
      const size_t seed = order[si];
      if (taken[seed]) continue;
      const size_t first = num_members;
      members[num_members++] = seed;
      taken[seed] = 1;
      size_t len = 1;
      while (len < bound) {
        size_t pick = 0, pick_degree = 0;
        bool found = false;
        for (size_t w = offsets[seed]; w < offsets[seed + 1]; ++w) {
          const size_t nb = adj[w];
          if (taken[nb]) continue;
          bool adjacent_to_all = true;
          for (size_t k = 1; k < len; ++k) {
            if (!has_edge(members[first + k], nb)) {
              adjacent_to_all = false;
              break;
            }
          }
          if (!adjacent_to_all) continue;
          const size_t d = deg[nb];
          if (!found || d < pick_degree ||
              (d == pick_degree && soa->id[nb] < soa->id[pick])) {
            found = true;
            pick = nb;
            pick_degree = d;
          }
        }
        if (!found) break;
        members[num_members++] = pick;
        taken[pick] = 1;
        ++len;
      }
      group_first[num_groups] = first;
      group_len[num_groups] = len;
      ++num_groups;
    }

    // Members inside a group join schedules in ascending shareability order.
    const Request** member_reqs =
        arena->AllocateArray<const Request*>(num_members);
    for (size_t g = 0; g < num_groups; ++g) {
      std::sort(members + group_first[g],
                members + group_first[g] + group_len[g],
                [&](size_t a, size_t b) {
                  if (deg[a] != deg[b]) return deg[a] < deg[b];
                  return soa->id[a] < soa->id[b];
                });
    }
    for (size_t m = 0; m < num_members; ++m) {
      member_reqs[m] = ctx->pending[members[m]];
    }

    // Proposal pricing (phase A; a pure read of the fleet): each group
    // fills its fixed-size candidate and proposal slots in the batch arena.
    // A group's candidate list outlives its pricing: should every proposal
    // fail, the group's first half retries against the same list.
    size_t* cands =
        arena->AllocateArray<size_t>(num_groups * kCandidateVehicles);
    size_t* num_cands = arena->AllocateArray<size_t>(num_groups);
    Proposal* props =
        arena->AllocateArray<Proposal>(num_groups * kCandidateVehicles);
    uint32_t* prop_count = arena->AllocateArray<uint32_t>(num_groups);
    for (size_t gi = 0; gi < num_groups; ++gi) {
      Span<const Request* const> mem(member_reqs + group_first[gi],
                                     group_len[gi]);
      size_t* group_cands = cands + gi * kCandidateVehicles;
      num_cands[gi] = FindCandidates(*ctx, mem, group_cands);
      prop_count[gi] = static_cast<uint32_t>(
          PriceGroupPooled(ctx, mem, group_cands, num_cands[gi],
                           props + gi * kCandidateVehicles));
    }

    // Acceptance commits (phase B; deterministic group order).
    for (size_t gi = 0; gi < num_groups; ++gi) {
      Span<const Request* const> mem(member_reqs + group_first[gi],
                                     group_len[gi]);
      AssignPooled(ctx, mem, cands + gi * kCandidateVehicles, num_cands[gi],
                   props + gi * kCandidateVehicles, prop_count[gi]);
    }

    size_t proposal_bytes = 0;
    for (size_t gi = 0; gi < num_groups; ++gi) {
      proposal_bytes += prop_count[gi] * sizeof(Proposal);
    }
    // Size-based (not capacity-based) accounting, so the figure is
    // deterministic; arena retention is reported separately as
    // RunMetrics::arena_peak_bytes.
    const size_t graph_bytes = (2 * num_pending + 1 + num_adj) * sizeof(size_t);
    const size_t group_bytes =
        num_members * (sizeof(size_t) + sizeof(const Request*)) +
        num_groups * 2 * sizeof(size_t);
    NotePeak(builder->MemoryBytes() + graph_bytes + proposal_bytes +
             group_bytes);
  }

 private:
  /// Writes the vehicles \p mem is proposed to — the kCandidateVehicles
  /// nearest its anchor, the first member's pickup — into \p out; returns
  /// the count.
  static size_t FindCandidates(const DispatchContext& ctx,
                               Span<const Request* const> mem, size_t* out) {
    return dispatch::NearestVehiclesInto(ctx, mem[0]->source,
                                         kCandidateVehicles, out);
  }

  /// Prices \p mem against its candidates \p nearest (FindCandidates) into
  /// \p out (room for kCandidateVehicles), returning the count;
  /// (delta, vehicle)-sorted per the proposal policy. Pure read of the
  /// current fleet state; scratch lives on the thread's arena, so pricing
  /// never touches the heap.
  size_t PriceGroupPooled(DispatchContext* ctx,
                          Span<const Request* const> mem,
                          const size_t* nearest, size_t num_near,
                          Proposal* out) {
    const FleetView& fleet = ctx->fleet;
    size_t count = 0;
    NodeId anchor = mem[0]->source;
    // Batched warm-up of the first insertion leg: an *idle* candidate's
    // pricing looks up Cost(vehicle node, anchor) exactly when the first
    // member's empty-schedule lower-bound walk passes — the member goes to
    // position 0 of an empty schedule, that position's detour bound cannot
    // beat an infinite incumbent, and BestInsertion prices the pickup leg
    // only after the straight-line walk of the same splice passes.
    // Fetching those legs back to back keeps the anchor pinned in the
    // hub-label query across their misses, and pricing looks each of them
    // up anyway, so sp_queries is unchanged. Busy candidates' first legs
    // depend on their committed stops and are left to the sequential walk.
    const Stop first_member[2] = {PickupStop(*mem[0]), DropoffStop(*mem[0])};
    NodeId idle_nodes[kCandidateVehicles];
    size_t num_idle = 0;
    for (size_t ni = 0; ni < num_near; ++ni) {
      const Vehicle& v = fleet[nearest[ni]];
      if (v.schedule().empty() &&
          CheckScheduleLowerBound(v.route_state(ctx->now), {first_member, 2},
                                  ctx->engine)
              .first) {
        idle_nodes[num_idle++] = v.node();
      }
    }
    if (num_idle > 1) {
      double warmed[kCandidateVehicles];
      ctx->engine->CostMany(anchor, {idle_nodes, num_idle}, warmed);
    }
    for (size_t ni = 0; ni < num_near; ++ni) {
      const size_t vi = nearest[ni];
      ArenaScope scope(ScratchArena());
      dispatch::PooledGroupInsertion ins =
          dispatch::InsertGroupSequentialPooled(
              fleet[vi].route_state(ctx->now), fleet[vi].schedule().stops(),
              fleet[vi].legs(), mem, ctx->engine, scope.arena());
      if (ins.feasible) {
        out[count].delta = ins.delta_cost;
        out[count].vehicle = vi;
        ++count;
      }
    }
    // (delta, vehicle) is a total order (vehicle unique), so std::sort is
    // deterministic.
    std::sort(out, out + count, [this](const Proposal& a, const Proposal& b) {
      if (a.delta != b.delta) {
        return config_.sard_propose_worst_first ? a.delta > b.delta
                                                : a.delta < b.delta;
      }
      return a.vehicle < b.vehicle;
    });
    return count;
  }

  /// Serial acceptance for one group with candidates \p nearest: re-validate
  /// each proposal against the live fleet state, commit to the first that
  /// still fits; a group nobody accepts retries as halves (recursively, down
  /// to singletons), priced on the spot. Member subsets are subspans — no
  /// copies.
  void AssignPooled(DispatchContext* ctx, Span<const Request* const> mem,
                    const size_t* nearest, size_t num_near,
                    const Proposal* priced, size_t num_priced) {
    const FleetView& fleet = ctx->fleet;
    ArenaScope scope(ScratchArena());
    if (priced == nullptr) {
      Proposal* local = scope.AllocateArray<Proposal>(kCandidateVehicles);
      num_priced = PriceGroupPooled(ctx, mem, nearest, num_near, local);
      priced = local;
    }
    for (size_t pi = 0; pi < num_priced; ++pi) {
      const Vehicle& v = fleet[priced[pi].vehicle];
      ArenaScope commit_scope(ScratchArena());
      dispatch::PooledGroupInsertion ins =
          dispatch::InsertGroupSequentialPooled(
              v.route_state(ctx->now), v.schedule().stops(), v.legs(), mem,
              ctx->engine, commit_scope.arena());
      if (!ins.feasible) continue;
      if (!fleet.Commit(priced[pi].vehicle, {ins.stops, ins.len}, ctx->now,
                        ctx->engine)) {
        continue;
      }
      for (const Request* r : mem) ctx->assigned.push_back(r->id);
      return;
    }
    if (mem.size() <= 1 || !config_.sard_split_rejected_groups) return;
    // The first half keeps the group's anchor, and nothing writes the fleet
    // index during a round (the engine checks that every round), so its
    // candidates are this group's; the second half looks up its own.
    const size_t half = mem.size() / 2;
    AssignPooled(ctx, Span<const Request* const>(mem.data(), half), nearest,
                 num_near, nullptr, 0);
    Span<const Request* const> rest(mem.data() + half, mem.size() - half);
    size_t* rest_near = scope.AllocateArray<size_t>(kCandidateVehicles);
    AssignPooled(ctx, rest, rest_near, FindCandidates(*ctx, rest, rest_near),
                 nullptr, 0);
  }
};

}  // namespace

std::unique_ptr<Dispatcher> MakeSard(const DispatchConfig& config) {
  return std::make_unique<SardDispatcher>(config);
}

}  // namespace structride
