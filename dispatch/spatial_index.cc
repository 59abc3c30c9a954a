#include "dispatch/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/arena.h"
#include "util/logging.h"

namespace structride {
namespace dispatch {

namespace {

// Distance from a point to the complement of an axis-aligned rectangle:
// how far any point strictly outside [x0,x1]x[y0,y1] must be from q. Zero
// when q itself lies outside the rectangle.
double OutsideDistance(const Point& q, double x0, double y0, double x1,
                       double y1) {
  if (q.x < x0 || q.x > x1 || q.y < y0 || q.y > y1) return 0;
  return std::min(std::min(q.x - x0, x1 - q.x),
                  std::min(q.y - y0, y1 - q.y));
}

// Distance from a point to an axis-aligned rectangle (zero inside).
double BoxDistance(const Point& q, double x0, double y0, double x1,
                   double y1) {
  double dx = q.x < x0 ? x0 - q.x : (q.x > x1 ? q.x - x1 : 0);
  double dy = q.y < y0 ? y0 - q.y : (q.y > y1 ? q.y - y1 : 0);
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

void FleetIndex::Reset(const RoadNetwork& net,
                       const std::vector<Vehicle>& fleet,
                       const std::vector<int>& shard_of, int num_shards) {
  SR_CHECK(shard_of.size() == fleet.size());
  SR_CHECK(num_shards > 0);
  net_ = &net;
  min_x_ = min_y_ = 0;
  double max_x = 0, max_y = 0;
  for (size_t n = 0; n < net.num_nodes(); ++n) {
    const Point& p = net.position(static_cast<NodeId>(n));
    if (n == 0 || p.x < min_x_) min_x_ = p.x;
    if (n == 0 || p.y < min_y_) min_y_ = p.y;
    if (n == 0 || p.x > max_x) max_x = p.x;
    if (n == 0 || p.y > max_y) max_y = p.y;
  }
  // ~1 vehicle per cell: rings around a query cell then hold a handful of
  // candidates each, so a 16-nearest query touches tens of vehicles, not
  // the fleet.
  const int side = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(fleet.size()))));
  cols_ = rows_ = std::max(1, side);
  cell_w_ = std::max((max_x - min_x_) / cols_, 1e-9);
  cell_h_ = std::max((max_y - min_y_) / rows_, 1e-9);
  cells_.assign(static_cast<size_t>(cols_) * static_cast<size_t>(rows_), {});

  const size_t n = fleet.size();
  node_.resize(n);
  shard_.resize(n);
  in_service_.assign(n, 0);
  cell_.assign(n, kNoCell);
  slot_.assign(n, 0);
  eligible_.assign(static_cast<size_t>(num_shards), 0);
  in_service_count_ = 0;
  for (size_t v = 0; v < n; ++v) {
    SR_CHECK(shard_of[v] >= 0 && shard_of[v] < num_shards);
    node_[v] = fleet[v].node();
    shard_[v] = shard_of[v];
    if (fleet[v].in_service()) Insert(v);
  }
}

uint32_t FleetIndex::CellOf(const Point& p) const {
  const int cx = std::min(
      cols_ - 1, std::max(0, static_cast<int>((p.x - min_x_) / cell_w_)));
  const int cy = std::min(
      rows_ - 1, std::max(0, static_cast<int>((p.y - min_y_) / cell_h_)));
  return static_cast<uint32_t>(cy * cols_ + cx);
}

void FleetIndex::Insert(size_t v) {
  const Point& p = net_->position(node_[v]);
  const uint32_t c = CellOf(p);
  std::vector<Entry>& cell = cells_[c];
  cell_[v] = c;
  slot_[v] = static_cast<uint32_t>(cell.size());
  cell.push_back({p, static_cast<uint32_t>(v), shard_[v]});
  in_service_[v] = 1;
  ++eligible_[static_cast<size_t>(shard_[v])];
  ++in_service_count_;
}

void FleetIndex::Erase(size_t v) {
  std::vector<Entry>& cell = cells_[cell_[v]];
  const uint32_t s = slot_[v];
  cell[s] = cell.back();
  slot_[cell[s].vehicle] = s;
  cell.pop_back();
  cell_[v] = kNoCell;
  in_service_[v] = 0;
  --eligible_[static_cast<size_t>(shard_[v])];
  --in_service_count_;
}

void FleetIndex::Move(size_t v, NodeId node) {
  if (node_[v] == node) return;
  node_[v] = node;
  if (!in_service_[v]) return;
  const Point& p = net_->position(node);
  if (CellOf(p) == cell_[v]) {
    cells_[cell_[v]][slot_[v]].pos = p;
    return;
  }
  Erase(v);
  Insert(v);
}

void FleetIndex::SetInService(size_t v, bool in_service) {
  if (static_cast<bool>(in_service_[v]) == in_service) return;
  if (in_service) {
    Insert(v);
  } else {
    Erase(v);
  }
}

void FleetIndex::SetShard(size_t v, int shard) {
  SR_CHECK(shard >= 0 && static_cast<size_t>(shard) < eligible_.size());
  if (in_service_[v]) {
    --eligible_[static_cast<size_t>(shard_[v])];
    ++eligible_[static_cast<size_t>(shard)];
    cells_[cell_[v]][slot_[v]].shard = shard;
  }
  shard_[v] = shard;
}

void FleetIndex::CheckVehicle(size_t v, NodeId node, bool in_service,
                              int shard) const {
  SR_CHECK(v < node_.size());
  SR_CHECK(node_[v] == node);
  SR_CHECK(static_cast<bool>(in_service_[v]) == in_service);
  SR_CHECK(shard_[v] == shard);
  if (!in_service) {
    SR_CHECK(cell_[v] == kNoCell);
    return;
  }
  const Point& p = net_->position(node);
  SR_CHECK(cell_[v] == CellOf(p));
  const Entry& e = cells_[cell_[v]][slot_[v]];
  SR_CHECK(e.vehicle == v && e.shard == shard);
  SR_CHECK(e.pos.x == p.x && e.pos.y == p.y);
}

size_t FleetIndex::QueryInto(NodeId from, size_t k, double max_dist,
                             int shard, size_t* out) const {
  const size_t eligible = Eligible(shard);
  if (k == 0 || eligible == 0) return 0;
  const Point q = net_->position(from);
  ArenaScope scope(ScratchArena());
  auto admits = [shard](const Entry& e) {
    return shard < 0 || e.shard == shard;
  };

  // Dense ask: k covers most of the eligible vehicles, so walking grid
  // rings with per-candidate bound upkeep cannot beat one flat scan + sort
  // (this is pruneGDP's radius query with k = its fleet view's size).
  if (2 * k >= eligible) {
    auto* cand = scope.AllocateArray<std::pair<double, size_t>>(eligible);
    size_t num_cand = 0;
    for (const std::vector<Entry>& cell : cells_) {
      for (const Entry& e : cell) {
        if (!admits(e)) continue;
        double d = EuclidDistance(q, e.pos);
        if (max_dist >= 0 && d > max_dist) continue;
        cand[num_cand++] = {d, e.vehicle};
      }
    }
    // Lexicographic pair order reproduces the full sort's distance-then-
    // index tie break exactly.
    std::sort(cand, cand + num_cand);
    size_t written = std::min(num_cand, k);
    for (size_t i = 0; i < written; ++i) out[i] = cand[i].second;
    return written;
  }

  const int qcx = std::min(
      cols_ - 1,
      std::max(0, static_cast<int>((q.x - min_x_) / cell_w_)));
  const int qcy = std::min(
      rows_ - 1,
      std::max(0, static_cast<int>((q.y - min_y_) / cell_h_)));

  // Sorted best-k array of (distance, index) pairs; k is small on this
  // path, so ordered insertion is a short memmove — cheaper than heap
  // churn, and already in final order.
  auto* best = scope.AllocateArray<std::pair<double, size_t>>(k + 1);
  size_t num_best = 0;
  auto bound = [&]() {
    return num_best == k ? best[num_best - 1].first
                         : std::numeric_limits<double>::infinity();
  };
  auto scan_cell = [&](int cx, int cy) {
    // Cell-level prune: nothing inside the cell's rectangle can beat the
    // current kth-best.
    if (num_best == k) {
      double cell_lb = BoxDistance(q, min_x_ + cx * cell_w_,
                                   min_y_ + cy * cell_h_,
                                   min_x_ + (cx + 1) * cell_w_,
                                   min_y_ + (cy + 1) * cell_h_);
      if (cell_lb > best[num_best - 1].first) return;
    }
    const std::vector<Entry>& cell =
        cells_[static_cast<size_t>(cy) * static_cast<size_t>(cols_) +
               static_cast<size_t>(cx)];
    for (const Entry& e : cell) {
      if (!admits(e)) continue;
      double d = EuclidDistance(q, e.pos);
      if (max_dist >= 0 && d > max_dist) continue;
      std::pair<double, size_t> cand{d, e.vehicle};
      if (num_best == k && !(cand < best[num_best - 1])) continue;
      auto* pos = std::upper_bound(best, best + num_best, cand);
      for (auto* m = best + num_best; m > pos; --m) *m = *(m - 1);
      *pos = cand;
      if (num_best < k) ++num_best;
    }
  };

  const int max_ring = std::max(cols_, rows_);
  for (int r = 0; r <= max_ring; ++r) {
    // Lower bound on the distance from q to any cell outside the already
    // scanned (2r-1)-block: once it exceeds both the kth-best distance and
    // the radius cap, no unscanned vehicle can make the result (ties at the
    // bound keep expanding, so the index-ascending tie break stays exact).
    if (r > 0) {
      double lb = OutsideDistance(q, min_x_ + (qcx - (r - 1)) * cell_w_,
                                  min_y_ + (qcy - (r - 1)) * cell_h_,
                                  min_x_ + (qcx + r) * cell_w_,
                                  min_y_ + (qcy + r) * cell_h_);
      bool past_k = num_best == k && lb > bound();
      bool past_radius = max_dist >= 0 && lb > max_dist;
      if (past_k || past_radius) break;
    }
    // Ring r only: its top and bottom rows in full, and between them the
    // two side columns — O(r) cells, clipped to the grid.
    const int x0 = qcx - r, x1 = qcx + r, y0 = qcy - r, y1 = qcy + r;
    const int cx_lo = std::max(0, x0), cx_hi = std::min(cols_ - 1, x1);
    for (int cy = std::max(0, y0); cy <= std::min(rows_ - 1, y1); ++cy) {
      if (cy == y0 || cy == y1) {
        for (int cx = cx_lo; cx <= cx_hi; ++cx) scan_cell(cx, cy);
        continue;
      }
      if (x0 >= 0) scan_cell(x0, cy);
      if (x1 < cols_) scan_cell(x1, cy);
    }
  }

  for (size_t i = 0; i < num_best; ++i) out[i] = best[i].second;
  return num_best;
}

}  // namespace dispatch
}  // namespace structride
