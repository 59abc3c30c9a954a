// The travel-cost oracle every layer above roadnet/ programs against: a
// point-to-point shortest-path backend (hub labels by default, matching the
// paper's setup) behind a lock-striped, sharded LRU cache with exact,
// race-free query accounting so benches can report #SP queries per run.
//
// Concurrency contract (DESIGN.md §"Concurrency model"):
//  - The network is undirected and every backend is symmetric, so the cache
//    key is the canonical (min, max) node pair: Cost(s, t) and Cost(t, s)
//    share one slot and at most one backend computation.
//  - The cache is split into power-of-two shards, each with its own mutex
//    and allocation-free flat LRU (roadnet/flat_lru.h); threads touching
//    different pairs almost never contend.
//  - A backend computation is counted iff its result enters the cache. The
//    miss path computes under the shard lock, which doubles as in-flight
//    deduplication: two threads racing on the same cold pair serialize, the
//    second finds a hit, and num_queries() is identical at 1 and N threads
//    (as long as the working set fits the capacity — eviction order, and
//    hence re-misses, are the one thing access interleaving can change).
//  - CostMany(s, targets) is Cost(s, t) per target, in order. Its misses
//    share an endpoint, so the hub-label query keeps s pinned across them
//    and each pays one target-label walk.
//
// Two free lower bounds sit beside the exact costs: the straight-line
// distance (LowerBound) and the landmark bound (LandmarkLowerBound), read
// from a table the root engine builds once after freezing the network and
// its cache partitions borrow. Neither is ever counted or cached.

#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "roadnet/flat_lru.h"
#include "roadnet/road_network.h"
#include "util/span.h"

namespace structride {

class HubLabeling;
class ContractionHierarchies;

/// ALT landmark distances (Goldberg & Harrelson, SODA 2005): exact
/// shortest-path costs from kLandmarks nodes to every node, stored
/// node-major so one node's row is one contiguous run of kLandmarks
/// doubles. By the triangle inequality on the undirected network,
/// |d_k(s) - d_k(t)| <= cost(s, t) for every landmark k, so the largest
/// such gap is an admissible lower bound.
///
/// Landmarks are chosen by farthest-point selection from node 0: each next
/// landmark is the node farthest from all chosen ones (lowest id on ties; a
/// node no chosen landmark reaches counts as farthest, so every component
/// gets one while landmarks last). Each landmark costs one DijkstraAll. The
/// table is a function of the frozen CSR alone, so a generated, an imported
/// and a snapshot-loaded copy of one graph hold bitwise the same table.
class LandmarkTable {
 public:
  static constexpr size_t kLandmarks = 8;

  explicit LandmarkTable(const RoadNetwork& net);

  /// max_k |d_k(s) - d_k(t)|, less a rounding margin, never below 0; 0 for
  /// s == t. The margin covers the last-bit differences between the
  /// Dijkstra sums stored here and what the engine's backend returns for
  /// the same pair (hub labels and CH add up other paths of equal length).
  /// A landmark that reaches only one of s and t (their cost is then
  /// infinite), or neither, contributes nothing, so the bound is never NaN
  /// or infinite.
  double LowerBound(NodeId s, NodeId t) const {
    const double* ds = &dist_[static_cast<size_t>(s) * kLandmarks];
    const double* dt = &dist_[static_cast<size_t>(t) * kLandmarks];
    double gap = 0;
    for (size_t k = 0; k < kLandmarks; ++k) {
      const double d = std::fabs(ds[k] - dt[k]);
      if (d < std::numeric_limits<double>::infinity() && d > gap) gap = d;
    }
    return std::max(0.0, gap * (1 - 1e-9) - 1e-9);
  }

  /// The chosen landmarks, in selection order.
  const std::vector<NodeId>& landmarks() const { return landmarks_; }
  /// dist_[v * kLandmarks + k] = cost from landmark k to node v.
  const std::vector<double>& distances() const { return dist_; }

  size_t MemoryBytes() const {
    return landmarks_.capacity() * sizeof(NodeId) +
           dist_.capacity() * sizeof(double);
  }

 private:
  std::vector<NodeId> landmarks_;
  std::vector<double> dist_;
};

struct TravelCostOptions {
  enum class Backend {
    kHubLabeling,
    kContractionHierarchies,
    kBidirectionalDijkstra,
  };
  Backend backend = Backend::kHubLabeling;
  /// Total cached pairs across all shards.
  size_t cache_capacity = 1u << 20;
  /// Lock stripes; rounded up to a power of two, clamped to >= 1.
  size_t cache_shards = 64;
  /// Already-built indices to adopt instead of rebuilding — how a
  /// snapshot-loaded GraphBundle's preprocessed sections are plugged in.
  /// Used only when the matching backend is selected; must outlive the
  /// engine (and any partitions).
  const HubLabeling* prebuilt_hub_labels = nullptr;
  const ContractionHierarchies* prebuilt_ch = nullptr;
};

class TravelCostEngine {
 public:
  explicit TravelCostEngine(const RoadNetwork& net,
                            TravelCostOptions options = {});
  ~TravelCostEngine();

  TravelCostEngine(const TravelCostEngine&) = delete;
  TravelCostEngine& operator=(const TravelCostEngine&) = delete;

  /// Shortest-path travel cost between two nodes. Thread-safe.
  double Cost(NodeId s, NodeId t) const;

  /// One-to-many costs: out[i] = Cost(source, targets[i]), in order, with
  /// the same cache fills and counts. Thread-safe.
  void CostMany(NodeId source, Span<const NodeId> targets, double* out) const;

  /// Admissible lower bound (straight-line distance); free, never counted.
  double LowerBound(NodeId s, NodeId t) const {
    return net_.EuclidLowerBound(s, t);
  }

  /// Admissible lower bound from the landmark table; free, never counted.
  /// On the NYC preset graph the larger of it and LowerBound averages ~0.98
  /// of road cost, LowerBound alone ~0.70.
  double LandmarkLowerBound(NodeId s, NodeId t) const {
    return landmarks_->LowerBound(s, t);
  }
  /// The root engine's table; a partition returns its parent's.
  const LandmarkTable& landmark_table() const { return *landmarks_; }

  const RoadNetwork& network() const { return net_; }
  const TravelCostOptions& options() const { return options_; }

  /// Creates a cache partition: a child engine sharing this engine's frozen
  /// network and shortest-path backend, but owning a private FlatLru shard
  /// set and counters. Concurrent users (one geo-shard each) therefore never
  /// contend on a cache lock, and per-partition num_queries()/num_lookups()
  /// stay exact per user. The parent's num_queries()/num_lookups() aggregate
  /// over itself plus all partitions, live or destroyed (a dying partition
  /// folds its counts into the parent), so whole-process accounting is
  /// unaffected by partition lifetimes. Partitions must not outlive the
  /// parent and cannot themselves be partitioned.
  std::unique_ptr<TravelCostEngine> MakeCachePartition(size_t capacity,
                                                       size_t stripes);
  bool is_partition() const { return parent_ != nullptr; }

  /// Backend shortest-path computations (i.e. entries inserted on misses).
  uint64_t num_queries() const;
  /// All Cost() calls (CostMany counts one per target), hits included.
  uint64_t num_lookups() const;
  double CacheHitRate() const;

  size_t MemoryBytes() const;

 private:
  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    mutable std::mutex mutex;
    FlatLru lru;
    uint64_t queries = 0;  ///< inserts; guarded by mutex, hence exact
    uint64_t lookups = 0;  ///< Cost/CostMany targets routed here; ditto
  };

  /// Partition constructor: shares parent's network + backend, owns a cache.
  TravelCostEngine(TravelCostEngine* parent, size_t capacity, size_t stripes);

  void BuildCache(size_t capacity, size_t stripes);
  double BackendCost(NodeId s, NodeId t) const;
  Shard& ShardFor(uint64_t key) const;
  const HubLabeling* Hl() const {
    if (parent_ != nullptr) return parent_->Hl();
    return options_.prebuilt_hub_labels != nullptr
               ? options_.prebuilt_hub_labels
               : hub_labels_.get();
  }
  const ContractionHierarchies* Ch() const {
    if (parent_ != nullptr) return parent_->Ch();
    return options_.prebuilt_ch != nullptr ? options_.prebuilt_ch : ch_.get();
  }
  /// This engine's own cache counters, partitions excluded.
  uint64_t OwnQueries() const;
  uint64_t OwnLookups() const;
  void RetireChild(const TravelCostEngine* child);

  const RoadNetwork& net_;
  TravelCostOptions options_;
  std::unique_ptr<HubLabeling> hub_labels_;
  std::unique_ptr<ContractionHierarchies> ch_;
  /// Built by the root engine; landmarks_ points at it, or at the parent's
  /// table in a partition.
  std::unique_ptr<LandmarkTable> own_landmarks_;
  const LandmarkTable* landmarks_ = nullptr;

  mutable std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  /// s == t lookups only: they never touch a shard, so they keep their own
  /// counter; everything else is counted under the shard lock it already
  /// takes (one atomic RMW fewer on the hot path).
  mutable std::atomic<uint64_t> self_lookups_{0};

  /// Partition bookkeeping. parent_ is set on children; children_ and the
  /// retired_* accumulators live on the parent.
  TravelCostEngine* parent_ = nullptr;
  mutable std::mutex children_mutex_;
  std::vector<const TravelCostEngine*> children_;
  std::atomic<uint64_t> retired_queries_{0};
  std::atomic<uint64_t> retired_lookups_{0};
};

}  // namespace structride
