// Shareability-graph construction (Alg. 1), maintained incrementally across
// batches (DESIGN.md §7): fold request batches into the graph by testing
// pairwise joint-service feasibility with the travel-cost engine, and peel
// closed requests back out in O(degree) as assignment / cancellation /
// expiry events retire them — instead of rebuilding the graph from scratch
// over the whole pending pool every batch. Every time-overlapping pair is
// screened for free before any shortest-path query (the lossless form of
// the paper's angle pruning, Sec. III-B), cheapest stage first: a
// pickup-reach test, then a walk of its joint stop orders at straight-line
// distance, then a walk of the survivors at the landmark bound. Because
// both bounds never exceed road cost, an order a screen rejects fails the
// exact walk too, so the graph is the one exact checking alone would
// build — only cheaper.
//
// Lifetimes: a pair (a, b) is exact-checked at most once per pair lifetime,
// the span during which both requests stay in the builder. AddRequests skips
// ids already present and examines only new-vs-present pairs, so the
// structure alone rules out a second check of a live pair. Removing either
// request ends the lifetime; a re-added request is evaluated afresh against
// everything present (request data is immutable, so the verdict repeats).
//
// Ownership: the simulation engine owns one builder per shard for the whole
// run and hands it to every round (DispatchContext::sharegraph); the only
// other builders are the per-batch throwaways of GAS/RTV's rebuild
// reference (DispatchConfig::incremental_sharegraph off).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/schedule.h"
#include "sharegraph/share_graph.h"
#include "util/span.h"

namespace structride {

struct ShareGraphBuilderOptions {
  /// Seats on the (hypothetical) shared vehicle; pairs share iff
  /// min(2, vehicle_capacity) seats admit an overlapping order.
  int vehicle_capacity = 4;
};

class ShareGraphBuilder {
 public:
  ShareGraphBuilder(TravelCostEngine* engine, ShareGraphBuilderOptions options)
      : engine_(engine), options_(options) {}

  /// Adds a batch: nodes for every request not already present, then
  /// shareability edges among the batch and against all previously added
  /// requests. Each new-vs-present pair passes a temporal screen and the
  /// free screens (a pair they reject counts in pruned_pairs()) before its
  /// exact check, which walks only the joint orders the screens kept.
  /// Edges land in the canonical (insertion-order) sequence. Each new
  /// request's pickup-to-pickup legs are prefetched back to back through
  /// TravelCostEngine::CostMany (one source, all partners that survived the
  /// screens), so the hub-label query keeps the source pinned across their
  /// misses; the query set is unchanged (DESIGN.md §5).
  void AddRequests(Span<const Request> batch);

  /// Removes one request: its node and edges leave the graph in O(degree)
  /// via the adjacency lists, and its slot in the insertion order is
  /// tombstoned (compacted lazily). Unknown ids are ignored, so lifecycle
  /// events may fire for requests that never reached a dispatch round.
  /// Returns whether the request was present — under geo-sharding a
  /// lifecycle event retires a request from every shard's builder, and only
  /// the shard(s) that synced it report true.
  bool RemoveRequest(RequestId id);

  /// One-call delta sync against a dispatch round's open set: removes every
  /// request no longer pending, then folds the unseen ones in. Under
  /// engine-driven event removals the removal half is a no-op sweep except
  /// under geo-sharding, where it drops a request escrowed to another shard
  /// from its old shard's builder.
  void SyncToPending(const std::vector<const Request*>& pending);

  const ShareGraph& graph() const { return graph_; }

  const Request& request(RequestId id) const;
  size_t num_requests() const { return requests_.size(); }

  /// Exact pairwise test: can one two-seat vehicle serve both requests with
  /// overlapping rides, within both deadlines? Costs shortest-path queries,
  /// but only for the joint orders the free screens cannot rule out.
  bool Shareable(const Request& a, const Request& b) const {
    return AnyOrderFeasible(a, b, ScreenOrders(a, b));
  }

  /// Pairs AddRequests proved unshareable with the free screens alone (no
  /// shortest-path queries, no exact check).
  uint64_t pruned_pairs() const { return pruned_pairs_; }
  /// Exact pairwise feasibility evaluations (exact walks of a pair's
  /// screened orders) performed — the redundancy metric the
  /// incremental-vs-rebuild bench gates on.
  uint64_t pair_checks() const { return pair_checks_; }

  size_t MemoryBytes() const;

 private:
  /// The free screens, cheapest first: the pickup-reach test, the
  /// straight-line walk, the landmark walk. Bit k is set when joint order k
  /// passes all three; 0 proves the pair unshareable.
  unsigned ScreenOrders(const Request& a, const Request& b) const;

  /// The exact walk over the joint orders in \p orders, in order, up to
  /// the first feasible one.
  bool AnyOrderFeasible(const Request& a, const Request& b,
                        unsigned orders) const;

  /// The subset of \p orders that \p walk accepts; with \p first_only it
  /// stops at the first accepted order.
  template <typename WalkFn>
  unsigned OrdersPassing(const Request& a, const Request& b, unsigned orders,
                         bool first_only, WalkFn walk) const;

  TravelCostEngine* engine_;
  ShareGraphBuilderOptions options_;
  /// The graph's node sequence doubles as the deterministic pairing order:
  /// every request is added to / removed from graph_ in lockstep with
  /// requests_, so graph_.Nodes() IS the insertion order of the live set.
  ShareGraph graph_;
  std::unordered_map<RequestId, Request> requests_;
  uint64_t pruned_pairs_ = 0;
  uint64_t pair_checks_ = 0;
};

}  // namespace structride
