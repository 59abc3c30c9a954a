#include "roadnet/travel_cost.h"

#include <algorithm>
#include <limits>

#include "roadnet/contraction_hierarchies.h"
#include "roadnet/dijkstra.h"
#include "roadnet/hub_labeling.h"
#include "util/bits.h"
#include "util/logging.h"

namespace structride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Canonical pair key: the network is undirected and every backend is
// symmetric, so (s, t) and (t, s) must share one cache slot.
inline uint64_t PairKey(NodeId s, NodeId t) {
  NodeId lo = std::min(s, t), hi = std::max(s, t);
  return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
         static_cast<uint32_t>(hi);
}

// Fibonacci-mix the key so consecutive node pairs spread across shards.
inline uint64_t ShardHash(uint64_t key) {
  return (key * 0x9e3779b97f4a7c15ull) >> 32;
}

}  // namespace

LandmarkTable::LandmarkTable(const RoadNetwork& net) {
  const size_t n = net.num_nodes();
  if (n == 0) return;
  landmarks_.reserve(kLandmarks);
  dist_.assign(n * kLandmarks, kInf);
  // Distance from each node to its nearest chosen landmark.
  std::vector<double> nearest(n, kInf);
  NodeId next = 0;
  for (size_t k = 0; k < kLandmarks; ++k) {
    landmarks_.push_back(next);
    const std::vector<double> d = DijkstraAll(net, next);
    size_t farthest = 0;
    for (size_t v = 0; v < n; ++v) {
      dist_[v * kLandmarks + k] = d[v];
      nearest[v] = std::min(nearest[v], d[v]);
      if (nearest[v] > nearest[farthest]) farthest = v;
    }
    next = static_cast<NodeId>(farthest);
  }
}

TravelCostEngine::TravelCostEngine(const RoadNetwork& net,
                                   TravelCostOptions options)
    : net_(net), options_(options) {
  // Freeze before any backend build or concurrent use: every search below
  // iterates the CSR spans.
  const_cast<RoadNetwork&>(net_).Freeze();
  own_landmarks_ = std::make_unique<LandmarkTable>(net_);
  landmarks_ = own_landmarks_.get();
  // A prebuilt index (from a loaded snapshot) is adopted as-is; only build
  // when the selected backend has none.
  switch (options_.backend) {
    case TravelCostOptions::Backend::kHubLabeling:
      if (options_.prebuilt_hub_labels == nullptr) {
        hub_labels_ = std::make_unique<HubLabeling>(net_);
      }
      break;
    case TravelCostOptions::Backend::kContractionHierarchies:
      if (options_.prebuilt_ch == nullptr) {
        ch_ = std::make_unique<ContractionHierarchies>(net_);
      }
      break;
    case TravelCostOptions::Backend::kBidirectionalDijkstra:
      break;
  }
  BuildCache(options_.cache_capacity, options_.cache_shards);
}

TravelCostEngine::TravelCostEngine(TravelCostEngine* parent, size_t capacity,
                                   size_t stripes)
    : net_(parent->net_),
      options_(parent->options_),
      landmarks_(parent->landmarks_),
      parent_(parent) {
  options_.cache_capacity = capacity;
  options_.cache_shards = stripes;
  BuildCache(capacity, stripes);
}

void TravelCostEngine::BuildCache(size_t capacity, size_t stripes) {
  size_t num_shards = RoundUpPow2(std::max<size_t>(1, stripes));
  shard_mask_ = num_shards - 1;
  size_t per_shard = std::max<size_t>(1, capacity / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

std::unique_ptr<TravelCostEngine> TravelCostEngine::MakeCachePartition(
    size_t capacity, size_t stripes) {
  SR_CHECK(parent_ == nullptr);  // partitions of partitions are not a thing
  auto child = std::unique_ptr<TravelCostEngine>(
      new TravelCostEngine(this, capacity, stripes));
  std::lock_guard<std::mutex> lock(children_mutex_);
  children_.push_back(child.get());
  return child;
}

void TravelCostEngine::RetireChild(const TravelCostEngine* child) {
  std::lock_guard<std::mutex> lock(children_mutex_);
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i] == child) {
      children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  retired_queries_.fetch_add(child->OwnQueries(), std::memory_order_relaxed);
  retired_lookups_.fetch_add(child->OwnLookups(), std::memory_order_relaxed);
}

TravelCostEngine::~TravelCostEngine() {
  if (parent_ != nullptr) parent_->RetireChild(this);
}

TravelCostEngine::Shard& TravelCostEngine::ShardFor(uint64_t key) const {
  return *shards_[ShardHash(key) & shard_mask_];
}

double TravelCostEngine::BackendCost(NodeId s, NodeId t) const {
  // Partitions own no backend: the computation (immutable after construction,
  // hence lock-free to share) is the parent's; only the cache is private.
  if (parent_ != nullptr) return parent_->BackendCost(s, t);
  switch (options_.backend) {
    case TravelCostOptions::Backend::kHubLabeling:
      return Hl()->Query(s, t);
    case TravelCostOptions::Backend::kContractionHierarchies:
      return Ch()->Query(s, t);
    case TravelCostOptions::Backend::kBidirectionalDijkstra:
      return BidirectionalDijkstra(net_, s, t);
  }
  return 0;  // unreachable
}

double TravelCostEngine::Cost(NodeId s, NodeId t) const {
  if (s == t) {
    self_lookups_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const uint64_t key = PairKey(s, t);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.lookups;
  if (const double* hit = shard.lru.Find(key)) return *hit;
  // Miss: compute while holding the shard lock. This serializes racing
  // threads on the same cold pair (the loser sees a hit above), so a backend
  // computation is counted exactly when its result is inserted.
  double cost = BackendCost(s, t);
  shard.lru.Insert(key, cost);
  ++shard.queries;
  return cost;
}

void TravelCostEngine::CostMany(NodeId source, Span<const NodeId> targets,
                                double* out) const {
  for (size_t i = 0; i < targets.size(); ++i) out[i] = Cost(source, targets[i]);
}

uint64_t TravelCostEngine::OwnQueries() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->queries;
  }
  return total;
}

uint64_t TravelCostEngine::OwnLookups() const {
  uint64_t total = self_lookups_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lookups;
  }
  return total;
}

uint64_t TravelCostEngine::num_queries() const {
  uint64_t total = OwnQueries();
  if (parent_ == nullptr) {
    total += retired_queries_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(children_mutex_);
    for (const TravelCostEngine* child : children_) {
      total += child->OwnQueries();
    }
  }
  return total;
}

uint64_t TravelCostEngine::num_lookups() const {
  uint64_t total = OwnLookups();
  if (parent_ == nullptr) {
    total += retired_lookups_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(children_mutex_);
    for (const TravelCostEngine* child : children_) {
      total += child->OwnLookups();
    }
  }
  return total;
}

double TravelCostEngine::CacheHitRate() const {
  uint64_t lookups = num_lookups();
  if (lookups == 0) return 0;
  return 1.0 - static_cast<double>(num_queries()) / static_cast<double>(lookups);
}

size_t TravelCostEngine::MemoryBytes() const {
  size_t bytes = 0;
  // Count whichever index the engine actually queries — owned or adopted
  // from a snapshot (the root engine charges adopted indices once).
  if (parent_ == nullptr) {
    if (const HubLabeling* hl = Hl()) bytes += hl->MemoryBytes();
    if (const ContractionHierarchies* ch = Ch()) bytes += ch->MemoryBytes();
    bytes += landmarks_->MemoryBytes();
  }
  for (const auto& shard : shards_) {
    bytes += shard->lru.MemoryBytes() + sizeof(Shard);
  }
  if (parent_ == nullptr) {
    std::lock_guard<std::mutex> lock(children_mutex_);
    for (const TravelCostEngine* child : children_) {
      bytes += child->MemoryBytes();
    }
  }
  return bytes;
}

}  // namespace structride
