// SARD: the paper's structure-aware ridesharing dispatcher. Per batch:
// fold the new requests into a persistent shareability graph (Alg. 1, every
// pair screened by the lower-bound walk that makes SARD-O's angle pruning
// lossless — SARD-O is an alias), partition the open requests into
// capacity-bounded cliques (the grouping stage), then run the
// proposal/acceptance stage (Alg. 3): each group is proposed to nearby
// vehicles, each vehicle prices the group by linear insertion in ascending
// shareability order (Sec. IV-A) and the first accepting vehicle commits.
//
// The acceptance evaluation is a pure read of the batch-start fleet state,
// which is what makes the parallel variant exact: worker threads (a pool
// reused across batches) only price proposals; commits happen serially in
// deterministic group order with re-validation, so thread count never
// changes the result. Groups every vehicle rejects are retried as halves
// down to singletons (DispatchConfig::sard_split_rejected_groups), because
// the clique partition would otherwise re-form the identical group next
// batch and starve its members.
//
// Two representations of the same algorithm (DispatchConfig::soa_pools):
// the pooled path stages the induced subgraph, clique partition, member
// order and proposal slots as flat arrays in the batch arena and prices
// groups through InsertGroupSequentialPooled (thread-scratch ping-pong
// buffers) — zero heap allocations per steady-state batch once pools are
// warm — while the legacy path below it keeps the original per-batch
// containers as the bitwise parity reference. Every decision point (clique
// seeds, member picks, proposal order, commit order, travel-cost query
// sequence) is evaluated in the identical order, so the two paths reproduce
// each other exactly on served / unified_cost / sp_queries.

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "dispatch/common.h"
#include "dispatch/dispatcher.h"
#include "sharegraph/analysis.h"
#include "util/thread_pool.h"

namespace structride {
namespace {

class SardDispatcher : public Dispatcher {
 public:
  using Dispatcher::Dispatcher;

  void OnBatch(DispatchContext* ctx) override {
    if (config_.soa_pools) {
      OnBatchPooled(ctx);
    } else {
      OnBatchLegacy(ctx);
    }
  }

 private:
  static constexpr size_t kCandidateVehicles = 16;

  struct Proposal {
    double delta = 0;
    size_t vehicle = 0;
  };

  /// One-pointer capture context for the pooled pricing ParallelFor (a
  /// std::function over a single pointer stays in its small-buffer slot, so
  /// dispatching the parallel phase allocates nothing).
  struct PriceCtx {
    SardDispatcher* self;
    DispatchContext* ctx;
    const Request* const* member_reqs;
    const size_t* group_first;
    const size_t* group_len;
    Proposal* props;
    uint32_t* prop_count;
  };

  ShareGraphBuilder* SyncedBuilder(DispatchContext* ctx, ThreadPool* pool) {
    // The run's engine-maintained builder when provided (closed requests
    // already retired by lifecycle events), else the private persistent
    // builder — both paths then do the same delta sync: drop anything no
    // longer pending, fold the fresh slice in, so the graph tracks the
    // open set (DESIGN.md §7).
    ShareGraphBuilder* builder = ctx->sharegraph;
    if (builder == nullptr) {
      if (!builder_) {
        builder_ = std::make_unique<ShareGraphBuilder>(ctx->engine,
                                                       config_.sharegraph);
        builder_->set_memoize_pairs(true);  // persistent across batches
      }
      builder = builder_.get();
    }
    builder->set_pool(pool);
    builder->SyncToPending(ctx->pending);
    SetPairChecks(builder->pair_checks());
    return builder;
  }

  // ---------------------------------------------------------------------
  // Pooled path (DispatchConfig::soa_pools = true, DESIGN.md §8).
  // ---------------------------------------------------------------------

  void OnBatchPooled(DispatchContext* ctx) {
    const FleetView& fleet = ctx->fleet;
    if (ctx->pending.empty()) return;

    ThreadPool* pool = WorkerPool(ctx);
    ShareGraphBuilder* builder = SyncedBuilder(ctx, pool);

    // SoA view of the pending pool (id -> pool-index without a hash map)
    // and the batch arena — the caller's when provided, else the private
    // fallbacks, so hand-built contexts work unchanged.
    const RequestSoA* soa = ctx->pending_soa;
    if (soa == nullptr) {
      pending_soa_.Refresh({ctx->pending.data(), ctx->pending.size()});
      soa = &pending_soa_;
    }
    EpochArena* arena = ctx->arena;
    if (arena == nullptr) {
      own_arena_.Reset();
      arena = &own_arena_;
    }
    const size_t num_pending = ctx->pending.size();

    // Induced share subgraph over the open requests as a CSR adjacency in
    // the batch arena: the same edge set the legacy path materializes as a
    // per-batch ShareGraph (assigned/expired nodes fall out naturally
    // because only pending ids resolve through IndexOfId). Each adjacency
    // run is sorted so membership tests are binary searches; no decision
    // below depends on adjacency order beyond the edge set.
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
    // match the legacy ShareGraph walk regardless of adjacency order, and
    // (degree, id) is a total order (ids unique), so std::sort reproduces
    // the legacy stable_sort.
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

    // One fleet index per batch; the persistent scanner refills its planes
    // in place (steady-state rebuilds without heap allocation).
    scanner_.Rebuild(fleet, ctx->engine->network(), config_.use_spatial_index);

    // Proposal pricing (phase A; pure, parallelizable): workers fill
    // disjoint fixed-size proposal slots in the batch arena.
    Proposal* props =
        arena->AllocateArray<Proposal>(num_groups * kCandidateVehicles);
    uint32_t* prop_count = arena->AllocateArray<uint32_t>(num_groups);
    PriceCtx pctx{this,      ctx,   member_reqs, group_first,
                  group_len, props, prop_count};
    auto price_task = [p = &pctx](size_t gi) {
      Span<const Request* const> mem(p->member_reqs + p->group_first[gi],
                                     p->group_len[gi]);
      p->prop_count[gi] = static_cast<uint32_t>(p->self->PriceGroupPooled(
          p->ctx, mem, p->props + gi * kCandidateVehicles));
    };
    if (pool && num_groups > 1) {
      pool->ParallelFor(num_groups, price_task);
    } else {
      for (size_t gi = 0; gi < num_groups; ++gi) price_task(gi);
    }

    // Acceptance commits (phase B; serial, deterministic group order).
    for (size_t gi = 0; gi < num_groups; ++gi) {
      Span<const Request* const> mem(member_reqs + group_first[gi],
                                     group_len[gi]);
      AssignPooled(ctx, mem, props + gi * kCandidateVehicles, prop_count[gi]);
    }

    size_t proposal_bytes = 0;
    for (size_t gi = 0; gi < num_groups; ++gi) {
      proposal_bytes += prop_count[gi] * sizeof(Proposal);
    }
    // Size-based (not capacity-based) accounting, so the figure is
    // deterministic and identical across caller-provided vs fallback
    // arenas; arena retention is reported separately as
    // RunMetrics::arena_peak_bytes.
    const size_t graph_bytes = (2 * num_pending + 1 + num_adj) * sizeof(size_t);
    const size_t group_bytes =
        num_members * (sizeof(size_t) + sizeof(const Request*)) +
        num_groups * 2 * sizeof(size_t);
    NotePeak(builder->MemoryBytes() + graph_bytes + proposal_bytes +
             scanner_.MemoryBytes() + group_bytes);
  }

  /// Prices \p mem against its nearby vehicles into \p out (room for
  /// kCandidateVehicles), returning the count; (delta, vehicle)-sorted per
  /// the proposal policy. Pure read of the current fleet state; scratch
  /// lives on the calling thread's arena, so workers price concurrently
  /// without touching the heap.
  size_t PriceGroupPooled(DispatchContext* ctx,
                          Span<const Request* const> mem, Proposal* out) {
    const FleetView& fleet = ctx->fleet;
    size_t count = 0;
    NodeId anchor = mem[0]->source;
    size_t nearest[kCandidateVehicles];
    const size_t num_near =
        scanner_.NearestInto(anchor, kCandidateVehicles, nearest);
    // Batched warm-up of the first insertion leg: an *idle* candidate's
    // pricing provably starts with Cost(vehicle node, anchor) — the first
    // member goes to position 0 of an empty schedule, that position's
    // lower bound cannot beat an infinite incumbent, and an open
    // request's pickup deadline is ahead of `now`, so BestInsertion's
    // first CheckSchedule always prices that leg. One-to-many fetching
    // those legs pins the anchor's hub label once; CostMany's per-target
    // cache fill/count keeps sp_queries identical to the point-to-point
    // path. Busy candidates' first legs depend on their committed stops
    // and are left to the sequential walk.
    NodeId idle_nodes[kCandidateVehicles];
    size_t num_idle = 0;
    for (size_t ni = 0; ni < num_near; ++ni) {
      const Vehicle& v = fleet[nearest[ni]];
      if (v.schedule().empty()) idle_nodes[num_idle++] = v.node();
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
              mem, ctx->engine, scope.arena());
      if (ins.feasible) {
        out[count].delta = ins.delta_cost;
        out[count].vehicle = vi;
        ++count;
      }
    }
    // (delta, vehicle) is a total order (vehicle unique), so std::sort
    // reproduces the legacy stable_sort.
    std::sort(out, out + count, [this](const Proposal& a, const Proposal& b) {
      if (a.delta != b.delta) {
        return config_.sard_propose_worst_first ? a.delta > b.delta
                                                : a.delta < b.delta;
      }
      return a.vehicle < b.vehicle;
    });
    return count;
  }

  /// Serial acceptance for one group: re-validate each proposal against the
  /// live fleet state, commit to the first that still fits; a group nobody
  /// accepts retries as halves (recursively, down to singletons), priced on
  /// the spot. Member subsets are subspans — no copies.
  void AssignPooled(DispatchContext* ctx, Span<const Request* const> mem,
                    const Proposal* priced, size_t num_priced) {
    const FleetView& fleet = ctx->fleet;
    ArenaScope scope(ScratchArena());
    if (priced == nullptr) {
      Proposal* local = scope.AllocateArray<Proposal>(kCandidateVehicles);
      num_priced = PriceGroupPooled(ctx, mem, local);
      priced = local;
    }
    for (size_t pi = 0; pi < num_priced; ++pi) {
      Vehicle& v = fleet[priced[pi].vehicle];
      ArenaScope commit_scope(ScratchArena());
      dispatch::PooledGroupInsertion ins =
          dispatch::InsertGroupSequentialPooled(
              v.route_state(ctx->now), v.schedule().stops(), mem, ctx->engine,
              commit_scope.arena());
      if (!ins.feasible) continue;
      if (!v.CommitStops({ins.stops, ins.len}, ctx->now, ctx->engine)) {
        continue;
      }
      for (const Request* r : mem) ctx->assigned.push_back(r->id);
      return;
    }
    if (mem.size() <= 1 || !config_.sard_split_rejected_groups) return;
    const size_t half = mem.size() / 2;
    AssignPooled(ctx, Span<const Request* const>(mem.data(), half), nullptr,
                 0);
    AssignPooled(ctx,
                 Span<const Request* const>(mem.data() + half,
                                            mem.size() - half),
                 nullptr, 0);
  }

  // ---------------------------------------------------------------------
  // Legacy path (soa_pools = false): the original vector-backed batch,
  // kept verbatim as the pooled path's bitwise parity reference.
  // ---------------------------------------------------------------------

  void OnBatchLegacy(DispatchContext* ctx) {
    const FleetView& fleet = ctx->fleet;
    if (ctx->pending.empty()) return;

    ThreadPool* pool = WorkerPool(ctx);
    ShareGraphBuilder* builder = SyncedBuilder(ctx, pool);

    // Induced subgraph over the open requests (assigned/expired nodes fall
    // out naturally because only pending ids are copied in).
    ShareGraph open;
    std::unordered_map<RequestId, const Request*> by_id;
    for (const Request* r : ctx->pending) {
      open.AddNode(r->id);
      by_id[r->id] = r;
    }
    for (const Request* r : ctx->pending) {
      for (RequestId nb : builder->graph().Neighbors(r->id)) {
        if (nb > r->id && by_id.count(nb)) open.AddEdge(r->id, nb);
      }
    }

    int bound = std::min(config_.vehicle_capacity,
                         config_.grouping.max_group_size);
    std::vector<std::vector<RequestId>> groups =
        GreedyCliquePartition(open, static_cast<size_t>(bound > 0 ? bound : 1));

    // Members inside a group join schedules in ascending shareability order.
    std::vector<std::vector<const Request*>> group_members(groups.size());
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      std::vector<RequestId> ids = groups[gi];
      std::stable_sort(ids.begin(), ids.end(), [&](RequestId a, RequestId b) {
        size_t da = open.Degree(a), db = open.Degree(b);
        if (da != db) return da < db;
        return a < b;
      });
      for (RequestId id : ids) group_members[gi].push_back(by_id[id]);
    }

    // One fleet index per batch; every nearest-candidate scan below answers
    // from it (or from the legacy full sort when the knob is off).
    dispatch::CandidateScanner scanner(fleet, ctx->engine->network(),
                                       config_.use_spatial_index);

    // Proposal pricing (phase A; pure, parallelizable): for each group, the
    // feasible nearby vehicles ordered by the configured proposal policy.
    auto price_group = [&](const std::vector<const Request*>& members) {
      std::vector<Proposal> props;
      NodeId anchor = members.front()->source;
      const std::vector<size_t> nearest =
          scanner.Nearest(anchor, kCandidateVehicles);
      // Batched warm-up of the first insertion leg (see the pooled twin for
      // the full provenance argument).
      std::vector<NodeId> idle_nodes;
      for (size_t vi : nearest) {
        if (fleet[vi].schedule().empty()) idle_nodes.push_back(fleet[vi].node());
      }
      if (idle_nodes.size() > 1) {
        std::vector<double> warmed(idle_nodes.size());
        ctx->engine->CostMany(anchor, {idle_nodes.data(), idle_nodes.size()},
                              warmed.data());
      }
      for (size_t vi : nearest) {
        dispatch::GroupInsertion ins = dispatch::InsertGroupSequential(
            fleet[vi].route_state(ctx->now), fleet[vi].schedule(), members,
            ctx->engine);
        if (ins.feasible) props.push_back({ins.delta_cost, vi});
      }
      std::stable_sort(props.begin(), props.end(),
                       [&](const Proposal& a, const Proposal& b) {
                         if (a.delta != b.delta) {
                           return config_.sard_propose_worst_first
                                      ? a.delta > b.delta
                                      : a.delta < b.delta;
                         }
                         return a.vehicle < b.vehicle;
                       });
      return props;
    };

    std::vector<std::vector<Proposal>> proposals(groups.size());
    auto price_task = [&](size_t gi) {
      proposals[gi] = price_group(group_members[gi]);
    };
    if (pool && groups.size() > 1) {
      pool->ParallelFor(groups.size(), price_task);
    } else {
      for (size_t gi = 0; gi < groups.size(); ++gi) price_task(gi);
    }

    // Acceptance commits (phase B; serial, deterministic group order). A
    // vehicle's schedule may have grown since pricing, so each proposal is
    // re-validated before committing. A group nobody accepts retries as
    // halves (recursively, down to singletons): the split subgroups are
    // priced on the spot against the current fleet state.
    std::function<void(const std::vector<const Request*>&,
                       const std::vector<Proposal>*)>
        assign = [&](const std::vector<const Request*>& members,
                     const std::vector<Proposal>* priced) {
          std::vector<Proposal> local;
          if (priced == nullptr) {
            local = price_group(members);
            priced = &local;
          }
          for (const Proposal& p : *priced) {
            Vehicle& v = fleet[p.vehicle];
            dispatch::GroupInsertion ins = dispatch::InsertGroupSequential(
                v.route_state(ctx->now), v.schedule(), members, ctx->engine);
            if (!ins.feasible) continue;
            if (!v.CommitSchedule(ins.schedule, ctx->now, ctx->engine)) {
              continue;
            }
            for (const Request* r : members) ctx->assigned.push_back(r->id);
            return;
          }
          if (members.size() <= 1 || !config_.sard_split_rejected_groups) {
            return;
          }
          auto mid = members.begin() +
                     static_cast<ptrdiff_t>(members.size() / 2);
          std::vector<const Request*> lo(members.begin(), mid);
          std::vector<const Request*> hi(mid, members.end());
          assign(lo, nullptr);
          assign(hi, nullptr);
        };
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      assign(group_members[gi], &proposals[gi]);
    }

    size_t proposal_bytes = 0;
    for (const auto& plist : proposals) {
      proposal_bytes += plist.size() * sizeof(Proposal);
    }
    // Size-based accounting over the same content terms as the pooled twin
    // (CSR offsets + adjacency, member/group records), so memory_bytes is
    // identical across the two representations (pinned by tests/soa_test).
    size_t num_adj = 0;
    for (const Request* r : ctx->pending) num_adj += open.Degree(r->id);
    size_t num_members = 0;
    for (const auto& g : groups) num_members += g.size();
    const size_t graph_bytes =
        (2 * ctx->pending.size() + 1 + num_adj) * sizeof(size_t);
    const size_t group_bytes =
        num_members * (sizeof(size_t) + sizeof(const Request*)) +
        groups.size() * 2 * sizeof(size_t);
    NotePeak(builder->MemoryBytes() + graph_bytes + proposal_bytes +
             scanner.MemoryBytes() + group_bytes);
  }

  // The caller's per-run pool when provided; otherwise a private pool built
  // once and reused for every batch (never fresh threads per batch).
  ThreadPool* WorkerPool(DispatchContext* ctx) {
    int threads = config_.sard_parallel_acceptance
                      ? std::max(1, config_.num_threads)
                      : 1;
    if (threads <= 1) return nullptr;
    if (ctx->pool) return ctx->pool;
    if (!own_pool_) own_pool_ = std::make_unique<ThreadPool>(threads);
    return own_pool_.get();
  }

  /// Fallback when the caller keeps no run-scoped builder (the frozen
  /// legacy engine, hand-built contexts): SARD stays persistent either way.
  std::unique_ptr<ShareGraphBuilder> builder_;
  std::unique_ptr<ThreadPool> own_pool_;
  /// Pooled-path persistent state: the per-batch fleet index (planes
  /// refilled in place), the fallback pending-pool SoA view and the
  /// fallback batch arena for callers that provide none.
  dispatch::CandidateScanner scanner_;
  RequestSoA pending_soa_;
  EpochArena own_arena_;
};

}  // namespace

std::unique_ptr<Dispatcher> MakeSard(const DispatchConfig& config) {
  return std::make_unique<SardDispatcher>(config);
}

}  // namespace structride
