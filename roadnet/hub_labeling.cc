#include "roadnet/hub_labeling.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

namespace structride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Hierarchical quadtree-center build order: the node nearest the full
// bounding box's center first, then one node per quadrant, breadth-first
// down the recursion. Every prefix of the order covers the map at its own
// granularity — the separator property that keeps pruned-landmark labels
// near sqrt(n) on grid cities (a global centrality sort clusters redundant
// hubs in the center instead). Deterministic: ties broken by node id.
std::vector<NodeId> QuadtreeCenterOrder(const RoadNetwork& net) {
  const size_t n = net.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  if (n == 0) return order;

  double x0 = kInf, y0 = kInf, x1 = -kInf, y1 = -kInf;
  for (size_t v = 0; v < n; ++v) {
    const Point& p = net.position(static_cast<NodeId>(v));
    x0 = std::min(x0, p.x);
    y0 = std::min(y0, p.y);
    x1 = std::max(x1, p.x);
    y1 = std::max(y1, p.y);
  }

  struct Cell {
    double x0, y0, x1, y1;
    std::vector<NodeId> nodes;
  };
  std::deque<Cell> queue;
  Cell root{x0, y0, x1, y1, {}};
  root.nodes.resize(n);
  for (size_t v = 0; v < n; ++v) root.nodes[v] = static_cast<NodeId>(v);
  queue.push_back(std::move(root));

  while (!queue.empty()) {
    Cell cell = std::move(queue.front());
    queue.pop_front();
    if (cell.nodes.empty()) continue;
    const double cx = (cell.x0 + cell.x1) / 2;
    const double cy = (cell.y0 + cell.y1) / 2;

    NodeId pick = cell.nodes[0];
    double best = kInf;
    for (NodeId v : cell.nodes) {
      double d = EuclidDistance(net.position(v), {cx, cy});
      if (d < best || (d == best && v < pick)) {
        best = d;
        pick = v;
      }
    }
    order.push_back(pick);
    if (cell.nodes.size() == 1) continue;

    // Degenerate cell (coincident points): emit the rest in id order rather
    // than splitting forever.
    if (cell.x1 - cell.x0 < 1e-9 && cell.y1 - cell.y0 < 1e-9) {
      std::vector<NodeId> rest;
      for (NodeId v : cell.nodes) {
        if (v != pick) rest.push_back(v);
      }
      std::sort(rest.begin(), rest.end());
      for (NodeId v : rest) order.push_back(v);
      continue;
    }

    Cell quads[4] = {{cell.x0, cell.y0, cx, cy, {}},
                     {cx, cell.y0, cell.x1, cy, {}},
                     {cell.x0, cy, cx, cell.y1, {}},
                     {cx, cy, cell.x1, cell.y1, {}}};
    for (NodeId v : cell.nodes) {
      if (v == pick) continue;
      const Point& p = net.position(v);
      int q = (p.x >= cx ? 1 : 0) + (p.y >= cy ? 2 : 0);
      quads[q].nodes.push_back(v);
    }
    for (Cell& q : quads) {
      if (!q.nodes.empty()) queue.push_back(std::move(q));
    }
  }
  return order;
}

}  // namespace

HubLabeling::HubLabeling(const RoadNetwork& net) {
  size_t n = net.num_nodes();
  num_nodes_ = n;
  std::vector<NodeId> order = QuadtreeCenterOrder(net);

  // Labels grow across hub rounds at arbitrary nodes, so the build works on
  // per-node (rank, dist) vectors and flattens into the arena at the end.
  struct BuildEntry {
    int32_t hub_rank;
    double dist;
  };
  std::vector<std::vector<BuildEntry>> labels(n);

  // The pruning test for a node u settled in hub k's round is a query
  // between the hub and u over the labels built so far. The hub's label is
  // spread into a rank-indexed array for the whole round, so each test walks
  // only u's label. The hub's own rank-k entry, added when it settles first,
  // is left out: u holds no rank-k entry until after its test, so that entry
  // could never meet one. The minima, the pruning decisions and hence the
  // labels are those of a merge join over the live labels.
  std::vector<double> hub_pin(n, kInf);

  std::vector<double> dist(n, kInf);
  std::vector<NodeId> touched;
  using Entry = std::pair<double, NodeId>;
  for (int32_t rank = 0; rank < static_cast<int32_t>(n); ++rank) {
    NodeId hub = order[static_cast<size_t>(rank)];
    std::vector<BuildEntry>& hub_label = labels[static_cast<size_t>(hub)];
    for (const BuildEntry& e : hub_label) {
      hub_pin[static_cast<size_t>(e.hub_rank)] = e.dist;
    }
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[static_cast<size_t>(hub)] = 0;
    touched.push_back(hub);
    heap.push({0, hub});
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[static_cast<size_t>(u)]) continue;
      // Prune: if existing labels already certify a path <= d, the hub adds
      // nothing for u or anything beyond it.
      std::vector<BuildEntry>& label = labels[static_cast<size_t>(u)];
      double known = kInf;
      for (const BuildEntry& e : label) {
        known = std::min(known,
                         hub_pin[static_cast<size_t>(e.hub_rank)] + e.dist);
      }
      if (known <= d + 1e-9) continue;
      label.push_back({rank, d});
      for (const RoadNetwork::Arc& arc : net.arcs(u)) {
        double nd = d + arc.cost;
        size_t to = static_cast<size_t>(arc.to);
        if (nd < dist[to]) {
          if (dist[to] == kInf) touched.push_back(arc.to);
          dist[to] = nd;
          heap.push({nd, arc.to});
        }
      }
    }
    for (NodeId v : touched) dist[static_cast<size_t>(v)] = kInf;
    touched.clear();
    for (const BuildEntry& e : hub_label) {
      hub_pin[static_cast<size_t>(e.hub_rank)] = kInf;
    }
  }

  for (const auto& label : labels) total_entries_ += label.size();

  // Flatten: each node's (rank-ascending) run followed by one sentinel, so
  // the query's walks need no bound checks at all.
  offsets_.resize(n);
  ranks_.reserve(total_entries_ + n);
  dists_.reserve(total_entries_ + n);
  for (size_t v = 0; v < n; ++v) {
    offsets_[v] = static_cast<uint32_t>(ranks_.size());
    for (const BuildEntry& e : labels[v]) {
      ranks_.push_back(e.hub_rank);
      dists_.push_back(e.dist);
    }
    ranks_.push_back(kSentinelRank);
    dists_.push_back(kInf);
  }
  ranks_view_ = {ranks_.data(), ranks_.size()};
  dists_view_ = {dists_.data(), dists_.size()};
  offsets_view_ = {offsets_.data(), offsets_.size()};
}

std::unique_ptr<HubLabeling> HubLabeling::FromFrozenSections(
    Span<const uint32_t> offsets, Span<const int32_t> ranks,
    Span<const double> dists, size_t total_entries,
    std::shared_ptr<const void> payload) {
  SR_CHECK(ranks.size() == dists.size());
  auto hl = std::unique_ptr<HubLabeling>(new HubLabeling());
  hl->offsets_view_ = offsets;
  hl->ranks_view_ = ranks;
  hl->dists_view_ = dists;
  hl->total_entries_ = total_entries;
  hl->num_nodes_ = offsets.size();
  hl->payload_ = std::move(payload);
  return hl;
}

uint64_t HubLabeling::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

double HubLabeling::Query(NodeId s, NodeId t) const {
  if (s == t) return 0;
  // The calling thread's pin: scratch is +inf except at the pinned node's
  // hub ranks. Keyed by labeling id, not address (see id_).
  struct Pin {
    uint64_t labeling = 0;
    NodeId node = -1;
    std::vector<double> scratch;
  };
  thread_local Pin pin;
  const int32_t* R = ranks_view_.data();
  const double* D = dists_view_.data();
  const uint32_t* offsets = offsets_view_.data();
  if (pin.labeling != id_) {
    // Switching labelings: O(n), which no run does in steady state.
    pin.scratch.assign(num_nodes_, kInf);
    pin.labeling = id_;
    pin.node = -1;
  }
  double* scratch = pin.scratch.data();
  // Every walk below stops on its run's sentinel, and every rank before it
  // indexes the n-entry scratch. That needs only what the snapshot loader
  // checks: each run start in range, every rank in [0, n) or the sentinel,
  // and the plane ending on a sentinel.
  NodeId walk = t;
  if (pin.node == t) {
    walk = s;
  } else if (pin.node != s) {
    if (pin.node >= 0) {
      for (size_t k = offsets[static_cast<size_t>(pin.node)];
           R[k] != kSentinelRank; ++k) {
        scratch[R[k]] = kInf;
      }
    }
    for (size_t k = offsets[static_cast<size_t>(s)]; R[k] != kSentinelRank;
         ++k) {
      scratch[R[k]] = D[k];
    }
    pin.node = s;
  }
  // Gather: min over walk's run of scratch[rank] + dist. A rank the pinned
  // label lacks adds +inf and never wins. Four independent minima keep the
  // walk from being one long dependency chain; a minimum of doubles does not
  // depend on the order it is taken in.
  const int32_t* r = R + offsets[static_cast<size_t>(walk)];
  const double* d = D + offsets[static_cast<size_t>(walk)];
  double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  for (;; r += 4, d += 4) {
    if (r[0] == kSentinelRank) break;
    m0 = std::min(m0, scratch[r[0]] + d[0]);
    if (r[1] == kSentinelRank) break;
    m1 = std::min(m1, scratch[r[1]] + d[1]);
    if (r[2] == kSentinelRank) break;
    m2 = std::min(m2, scratch[r[2]] + d[2]);
    if (r[3] == kSentinelRank) break;
    m3 = std::min(m3, scratch[r[3]] + d[3]);
  }
  return std::min(std::min(m0, m1), std::min(m2, m3));
}

size_t HubLabeling::MemoryBytes() const {
  size_t bytes = ranks_.capacity() * sizeof(int32_t) +
                 dists_.capacity() * sizeof(double) +
                 offsets_.capacity() * sizeof(uint32_t);
  if (payload_ != nullptr) {
    bytes += ranks_view_.size() * sizeof(int32_t) +
             dists_view_.size() * sizeof(double) +
             offsets_view_.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace structride
