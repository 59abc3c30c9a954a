// Shareability-graph construction (Alg. 1), maintained incrementally across
// batches (DESIGN.md §7): fold request batches into the graph by testing
// pairwise joint-service feasibility with the travel-cost engine, and peel
// closed requests back out in O(degree) as assignment / cancellation /
// expiry events retire them — instead of rebuilding the graph from scratch
// over the whole pending pool every batch. Every time-overlapping pair is
// screened with a free Euclidean lower-bound walk of its joint stop orders
// before any shortest-path query (the lossless form of the paper's angle
// pruning, Sec. III-B): because the lower bound never exceeds road cost, an
// order the screen rejects fails the exact walk too, so the graph is the
// one exact checking alone would build — only cheaper.
//
// Lifetimes and the per-pair memo: a pair (a, b) is exactly-checked at most
// once per request lifetime. While both requests stay in the builder the
// structure guarantees it (AddRequests only examines new-vs-present pairs);
// on builders that outlive a batch (set_memoize_pairs) the memo records
// every exact check and answers any re-presentation of a live pair without
// touching the travel-cost engine. Removing a request
// ends its lifetime: its memo entries are purged through a reverse partner
// index, both directions of every pair (degree-bounded, like the graph),
// so a removed-and-re-added request is re-evaluated from scratch — request
// data is immutable, but the lifetime rule keeps the memo's footprint
// proportional to the live pair set.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/schedule.h"
#include "sharegraph/share_graph.h"
#include "util/span.h"

namespace structride {

class ThreadPool;

struct ShareGraphBuilderOptions {
  /// Seats on the (hypothetical) shared vehicle; pairs share iff
  /// min(2, vehicle_capacity) seats admit an overlapping order.
  int vehicle_capacity = 4;
};

class ShareGraphBuilder {
 public:
  ShareGraphBuilder(TravelCostEngine* engine, ShareGraphBuilderOptions options)
      : engine_(engine), options_(options) {}

  /// Adds a batch: nodes for every request, then shareability edges among
  /// the batch and against all previously added requests. Each new-vs-
  /// present pair passes a temporal screen and the lower-bound screen
  /// (counted in pruned_pairs()) before its exact check. With a pool set,
  /// the pairwise feasibility checks (the dominant cost of a dispatch
  /// batch) run on the workers; edges are still committed serially in the
  /// canonical (insertion-order) sequence, so the graph — and, because pair
  /// checks are mutually independent, the set of travel-cost pairs queried —
  /// is identical at any thread count. Each new request's pickup-to-pickup
  /// legs are prefetched through TravelCostEngine::CostMany (one source, all
  /// partners that survived the screens), which pins the source's hub label
  /// once without changing the query set (DESIGN.md §5).
  void AddRequests(Span<const Request> batch);
  void AddRequests(const std::vector<Request>& batch) {
    AddRequests(Span<const Request>(batch));
  }
  /// Historical name for AddRequests; kept for the call sites that fold a
  /// whole pool in one shot.
  void AddBatch(const std::vector<Request>& batch) {
    AddRequests(Span<const Request>(batch));
  }

  /// Removes one request: its node and edges leave the graph in O(degree)
  /// via the adjacency lists, its memo entries are purged (both
  /// directions) through the reverse partner index, and its slot in the
  /// insertion order is tombstoned (compacted lazily). Unknown ids are
  /// ignored, so lifecycle events may fire for requests that never
  /// reached a dispatch round. Returns whether the request was present —
  /// under geo-sharding a lifecycle event retires a request from every
  /// shard's builder, and only the shard(s) that synced it report true.
  bool RemoveRequest(RequestId id);
  void RemoveRequests(const std::vector<RequestId>& ids);

  /// Drops every request not in \p keep (assigned, expired or cancelled
  /// riders leave the graph; the paper's builder only carries open
  /// requests between batches).
  void Retain(Span<const RequestId> keep);
  void Retain(const std::vector<RequestId>& keep) {
    Retain(Span<const RequestId>(keep));
  }

  /// One-call delta sync against a dispatch round's open set: removes every
  /// request no longer pending, then folds the unseen ones in. Under
  /// engine-driven event removals the removal half is a no-op sweep; for
  /// hand-built contexts it is what keeps the graph honest.
  void SyncToPending(const std::vector<const Request*>& pending);

  /// Optional worker pool for AddRequests; null (the default) runs
  /// serially. Not owned; the caller keeps it alive across calls.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Record AddRequests' exact-check outcomes in the per-pair memo. On for
  /// builders that outlive a batch (the engine's run-scoped builder,
  /// SARD's private one); off (the default) for per-batch throwaways,
  /// where a memo can never be consulted again and would only cost
  /// hot-loop inserts and instrumented bytes. CheckedShareable memoizes
  /// regardless — that is its contract.
  void set_memoize_pairs(bool on) { memoize_pairs_ = on; }

  const ShareGraph& graph() const { return graph_; }
  ShareGraph* mutable_graph() { return &graph_; }

  const Request& request(RequestId id) const;
  bool has_request(RequestId id) const { return requests_.count(id) > 0; }
  size_t num_requests() const { return requests_.size(); }

  /// Exact pairwise test: can one two-seat vehicle serve both requests with
  /// overlapping rides, within both deadlines? Costs shortest-path queries,
  /// but only for the joint orders the lower-bound walk cannot rule out.
  /// Bypasses the memo; prefer CheckedShareable for repeated probing.
  bool Shareable(const Request& a, const Request& b) const;

  /// Memoized exact test for requests present in the builder: the first
  /// call per pair lifetime evaluates (counted in pair_checks()), repeats
  /// answer from the memo (counted in memo_hits()) without shortest-path
  /// queries.
  bool CheckedShareable(RequestId a, RequestId b);

  /// Pairs AddRequests proved unshareable with the lower-bound walk alone
  /// (no shortest-path queries, no exact check).
  uint64_t pruned_pairs() const { return pruned_pairs_; }
  /// Exact pairwise feasibility evaluations (Shareable runs) performed —
  /// the redundancy metric the incremental-vs-rebuild bench gates on.
  uint64_t pair_checks() const { return pair_checks_; }
  /// Pairs whose exact outcome was answered from the memo.
  uint64_t memo_hits() const { return memo_hits_; }

  size_t MemoryBytes() const;

 private:
  /// Canonical (min, max) key for the pair memo.
  struct PairKey {
    RequestId lo = 0;
    RequestId hi = 0;
    bool operator==(const PairKey& o) const {
      return lo == o.lo && hi == o.hi;
    }
  };
  struct PairKeyHasher {
    size_t operator()(const PairKey& k) const;
  };
  static PairKey MakeKey(RequestId a, RequestId b);

  void RecordMemo(RequestId a, RequestId b, bool shareable);

  /// False only when the pair is provably unshareable under the Euclidean
  /// lower-bound metric.
  bool LowerBoundShareable(const Request& a, const Request& b) const;

  template <typename Check>
  bool AnyJointOrderFeasible(const Request& a, const Request& b,
                             Check check) const;

  TravelCostEngine* engine_;
  ShareGraphBuilderOptions options_;
  ThreadPool* pool_ = nullptr;  ///< not owned
  /// The graph's node sequence doubles as the deterministic pairing order:
  /// every request is added to / removed from graph_ in lockstep with
  /// requests_, so graph_.Nodes() IS the insertion order of the live set.
  ShareGraph graph_;
  std::unordered_map<RequestId, Request> requests_;
  /// Exact-check outcomes for live pairs, plus the reverse partner index
  /// that makes purging a removed request's entries O(its memo degree).
  std::unordered_map<PairKey, bool, PairKeyHasher> memo_;
  std::unordered_map<RequestId, std::vector<RequestId>> memo_partners_;
  bool memoize_pairs_ = false;
  uint64_t pruned_pairs_ = 0;
  uint64_t pair_checks_ = 0;
  uint64_t memo_hits_ = 0;
};

}  // namespace structride
