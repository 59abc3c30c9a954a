#include "dispatch/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

}  // namespace

void FleetIndex::Reset(const RoadNetwork& net,
                       const std::vector<Vehicle>& fleet,
                       const std::vector<int>& shard_of, int num_shards) {
  SR_CHECK(shard_of.size() == fleet.size());
  SR_CHECK(num_shards > 0);
  SR_CHECK(fleet.size() < kNil && net.num_nodes() < kNil);
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
  row_shift_ = 0;
  while ((1 << row_shift_) < cols_) ++row_shift_;
  // Padded rows, rounded up to whole words of bits per count row.
  const size_t num_cells =
      ((static_cast<size_t>(rows_) << row_shift_) + 63) / 64 * 64;

  // Group the nodes by cell: a counting sort, with each cell's occupied
  // field as its fill cursor until the fleet goes in.
  const size_t num_nodes = net.num_nodes();
  cells_.assign(num_cells, {});
  cell_of_.resize(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    const Point& p = net.position(static_cast<NodeId>(n));
    cell_of_[n] = CellIndex(ColOf(p.x), RowOf(p.y));
    ++cells_[cell_of_[n]].occupied;
  }
  uint32_t begin = 0;
  for (Cell& cell : cells_) {
    cell.begin = begin;
    begin += cell.occupied;
    cell.occupied = 0;
  }
  slots_.resize(num_nodes);
  slot_of_.resize(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    Cell& cell = cells_[cell_of_[n]];
    const uint32_t s = cell.begin + cell.occupied++;
    slots_[s] = {net.position(static_cast<NodeId>(n)), static_cast<NodeId>(n),
                 0, 0, 0};
    slot_of_[n] = s;
  }
  for (Cell& cell : cells_) cell.occupied = 0;
  const size_t count_rows = static_cast<size_t>(num_shards) + 1;
  cell_count_.assign(count_rows * num_cells, 0);
  live_bits_.assign(count_rows * (num_cells / 64), 0);
  pool_.clear();
  free_block_.assign(32, kNil);

  const size_t n = fleet.size();
  node_.resize(n);
  shard_.resize(n);
  stack_pos_.assign(n, kNil);
  eligible_.assign(static_cast<size_t>(num_shards), 0);
  in_service_count_ = 0;
  mutations_ = 0;
  for (size_t v = 0; v < n; ++v) {
    SR_CHECK(shard_of[v] >= 0 && shard_of[v] < num_shards);
    node_[v] = fleet[v].node();
    shard_[v] = shard_of[v];
    if (fleet[v].in_service()) Insert(v);
  }
}

int FleetIndex::ColOf(double x) const {
  return std::min(cols_ - 1,
                  std::max(0, static_cast<int>((x - min_x_) / cell_w_)));
}

int FleetIndex::RowOf(double y) const {
  return std::min(rows_ - 1,
                  std::max(0, static_cast<int>((y - min_y_) / cell_h_)));
}

void FleetIndex::SwapSlots(uint32_t a, uint32_t b) {
  if (a == b) return;
  std::swap(slots_[a], slots_[b]);
  slot_of_[static_cast<size_t>(slots_[a].node)] = a;
  slot_of_[static_cast<size_t>(slots_[b].node)] = b;
}

uint32_t FleetIndex::AllocateBlock(uint32_t capacity) {
  uint32_t& head = free_block_[static_cast<size_t>(__builtin_ctz(capacity))];
  if (head != kNil) {
    const uint32_t block = head;
    head = pool_[block].vehicle;
    return block;
  }
  SR_CHECK(pool_.size() + capacity < kNil);
  const uint32_t block = static_cast<uint32_t>(pool_.size());
  pool_.resize(pool_.size() + capacity);
  return block;
}

void FleetIndex::FreeBlock(uint32_t block, uint32_t capacity) {
  uint32_t& head = free_block_[static_cast<size_t>(__builtin_ctz(capacity))];
  pool_[block].vehicle = head;
  head = block;
}

void FleetIndex::CountVehicle(size_t row, uint32_t c, int delta) {
  uint32_t& count = cell_count_[row * cells_.size() + c];
  const bool was_live = count > 0;
  count = delta > 0 ? count + 1 : count - 1;
  if (was_live == (count > 0)) return;
  live_bits_[row * (cells_.size() / 64) + c / 64] ^= uint64_t{1} << (c % 64);
}

void FleetIndex::Insert(size_t v) {
  const size_t node = static_cast<size_t>(node_[v]);
  uint32_t s = slot_of_[node];
  const uint32_t c = cell_of_[node];
  if (slots_[s].size == 0) {
    // The node's first vehicle: it joins its cell's occupied prefix.
    const uint32_t first_free = cells_[c].begin + cells_[c].occupied++;
    SwapSlots(s, first_free);
    s = first_free;
  }
  NodeSlot& slot = slots_[s];
  if (slot.size == slot.capacity) {
    // Move the stack to a block twice the size.
    const uint32_t capacity = std::max(1u, 2 * slot.capacity);
    const uint32_t block = AllocateBlock(capacity);
    std::copy_n(pool_.begin() + slot.stack, slot.size, pool_.begin() + block);
    if (slot.capacity > 0) FreeBlock(slot.stack, slot.capacity);
    slot.stack = block;
    slot.capacity = capacity;
  }
  pool_[slot.stack + slot.size] = {static_cast<uint32_t>(v), shard_[v]};
  stack_pos_[v] = slot.size++;
  const size_t shard = static_cast<size_t>(shard_[v]);
  CountVehicle(shard, c, 1);
  CountVehicle(CountRow(-1), c, 1);
  ++eligible_[shard];
  ++in_service_count_;
}

void FleetIndex::Erase(size_t v) {
  const size_t node = static_cast<size_t>(node_[v]);
  const uint32_t s = slot_of_[node];
  NodeSlot& slot = slots_[s];
  // Swap-remove: the stack's last entry takes the vehicle's place.
  const uint32_t pos = stack_pos_[v];
  const StackEntry last = pool_[slot.stack + --slot.size];
  pool_[slot.stack + pos] = last;
  stack_pos_[last.vehicle] = pos;
  stack_pos_[v] = kNil;
  const uint32_t c = cell_of_[node];
  if (slot.size == 0) {
    // The node's last vehicle left: its block goes back to the free list
    // and the node leaves its cell's occupied prefix.
    FreeBlock(slot.stack, slot.capacity);
    slot.capacity = 0;
    SwapSlots(s, cells_[c].begin + --cells_[c].occupied);
  }
  const size_t shard = static_cast<size_t>(shard_[v]);
  CountVehicle(shard, c, -1);
  CountVehicle(CountRow(-1), c, -1);
  --eligible_[shard];
  --in_service_count_;
}

void FleetIndex::Move(size_t v, NodeId node) {
  if (node_[v] == node) return;
  ++mutations_;
  if (stack_pos_[v] == kNil) {
    node_[v] = node;
    return;
  }
  Erase(v);
  node_[v] = node;
  Insert(v);
}

void FleetIndex::SetInService(size_t v, bool in_service) {
  if ((stack_pos_[v] != kNil) == in_service) return;
  ++mutations_;
  if (in_service) {
    Insert(v);
  } else {
    Erase(v);
  }
}

void FleetIndex::SetShard(size_t v, int shard) {
  SR_CHECK(shard >= 0 && static_cast<size_t>(shard) < eligible_.size());
  const int from = shard_[v];
  if (from == shard) return;
  ++mutations_;
  shard_[v] = shard;
  if (stack_pos_[v] == kNil) return;
  const size_t node = static_cast<size_t>(node_[v]);
  pool_[slots_[slot_of_[node]].stack + stack_pos_[v]].shard = shard;
  const uint32_t c = cell_of_[node];
  CountVehicle(static_cast<size_t>(from), c, -1);
  CountVehicle(static_cast<size_t>(shard), c, 1);
  --eligible_[static_cast<size_t>(from)];
  ++eligible_[static_cast<size_t>(shard)];
}

void FleetIndex::CheckVehicle(size_t v, NodeId node, bool in_service,
                              int shard) const {
  SR_CHECK(v < node_.size());
  SR_CHECK(node_[v] == node);
  SR_CHECK((stack_pos_[v] != kNil) == in_service);
  SR_CHECK(shard_[v] == shard);
  if (!in_service) return;
  // In its node's stack with its shard, the node in its cell's occupied
  // prefix and counted for the vehicle's shard and for all shards, with
  // both cell bits set.
  const uint32_t s = slot_of_[static_cast<size_t>(node)];
  const NodeSlot& slot = slots_[s];
  const Point& p = net_->position(node);
  SR_CHECK(slot.node == node && slot.pos.x == p.x && slot.pos.y == p.y);
  SR_CHECK(stack_pos_[v] < slot.size && slot.size <= slot.capacity);
  const StackEntry& e = pool_[slot.stack + stack_pos_[v]];
  SR_CHECK(e.vehicle == v && e.shard == shard);
  const uint32_t c = CellIndex(ColOf(p.x), RowOf(p.y));
  SR_CHECK(cell_of_[static_cast<size_t>(node)] == c);
  SR_CHECK(s >= cells_[c].begin && s < cells_[c].begin + cells_[c].occupied);
  for (size_t row : {CountRow(shard), CountRow(-1)}) {
    SR_CHECK(cell_count_[row * cells_.size() + c] > 0);
    SR_CHECK((LiveBits(row)[c / 64] >> (c % 64)) & 1);
  }
}

size_t FleetIndex::QueryInto(NodeId from, size_t k, double max_dist,
                             int shard, size_t* out) const {
  const size_t eligible = Eligible(shard);
  if (k == 0 || eligible == 0) return 0;
  const Point q = net_->position(from);
  const uint64_t* live = LiveBits(CountRow(shard));
  const uint32_t col_mask = (uint32_t{1} << row_shift_) - 1;
  ArenaScope scope(ScratchArena());
  // Calls visit(c) for every cell c of grid row cy whose column is in
  // [cx_lo, cx_hi] and that holds some eligible vehicle.
  auto for_live_cells = [&](int cy, int cx_lo, int cx_hi, auto&& visit) {
    const uint32_t first = CellIndex(cx_lo, cy), last = CellIndex(cx_hi, cy);
    for (uint32_t w = first / 64; w <= last / 64; ++w) {
      uint64_t word = live[w];
      if (w == first / 64) word &= ~uint64_t{0} << (first % 64);
      if (w == last / 64) word &= ~uint64_t{0} >> (63 - last % 64);
      for (; word != 0; word &= word - 1) {
        visit(w * 64 + static_cast<uint32_t>(__builtin_ctzll(word)));
      }
    }
  };
  // Calls visit(d, vehicle) for every eligible vehicle of cell c within the
  // radius cap whose node lies at distance d <= cap(); one comparison
  // passes over a node's whole stack. A node whose squared distance is
  // clearly past the cap (by a relative margin far above rounding error)
  // is dropped before its exact distance is taken.
  auto for_vehicles = [&](uint32_t c, auto&& cap, auto&& visit) {
    const NodeSlot* s = slots_.data() + cells_[c].begin;
    for (const NodeSlot* end = s + cells_[c].occupied; s != end; ++s) {
      const double dx = q.x - s->pos.x, dy = q.y - s->pos.y;
      const double limit = cap();
      if (dx * dx + dy * dy > limit * limit * (1 + 1e-9)) continue;
      const double d = EuclidDistance(q, s->pos);
      if ((max_dist >= 0 && d > max_dist) || d > limit) continue;
      const StackEntry* e = pool_.data() + s->stack;
      for (const StackEntry* e_end = e + s->size; e != e_end; ++e) {
        if (shard < 0 || e->shard == shard) visit(d, e->vehicle);
      }
    }
  };

  // Dense ask: k covers most of the eligible vehicles, so walking grid
  // rings with per-candidate bound upkeep cannot beat one flat scan + sort
  // (this is pruneGDP's radius query with k = its fleet view's size).
  if (2 * k >= eligible) {
    auto* cand = scope.AllocateArray<std::pair<double, size_t>>(eligible);
    size_t num_cand = 0;
    auto no_cap = [] { return std::numeric_limits<double>::infinity(); };
    auto collect = [&](double d, uint32_t v) { cand[num_cand++] = {d, v}; };
    for (int cy = 0; cy < rows_; ++cy) {
      for_live_cells(cy, 0, cols_ - 1,
                     [&](uint32_t c) { for_vehicles(c, no_cap, collect); });
    }
    // Lexicographic pair order reproduces the full sort's distance-then-
    // index tie break exactly.
    std::sort(cand, cand + num_cand);
    size_t written = std::min(num_cand, k);
    for (size_t i = 0; i < written; ++i) out[i] = cand[i].second;
    return written;
  }

  const int qcx = ColOf(q.x), qcy = RowOf(q.y);

  // Sorted best-k array of (distance, index) pairs; k is small on this
  // path, so an insertion-sort step is cheaper than heap churn, and leaves
  // the array in final order.
  auto* best = scope.AllocateArray<std::pair<double, size_t>>(k);
  size_t num_best = 0;
  auto bound = [&]() {
    return num_best == k ? best[num_best - 1].first
                         : std::numeric_limits<double>::infinity();
  };
  auto admit = [&](double d, uint32_t v) {
    const std::pair<double, size_t> cand{d, v};
    if (num_best == k && !(cand < best[k - 1])) return;
    // The new entry replaces the kth-best once the array is full.
    size_t i = num_best < k ? num_best++ : k - 1;
    for (; i > 0 && cand < best[i - 1]; --i) best[i] = best[i - 1];
    best[i] = cand;
  };
  auto scan_cell = [&](uint32_t c) {
    // Cell-level prune: nothing inside the cell's rectangle can beat the
    // current kth-best. Squared, with a relative margin far above rounding
    // error, so a pruned cell's nodes all lie strictly beyond the bound.
    if (num_best == k) {
      const int cx = static_cast<int>(c & col_mask);
      const int cy = static_cast<int>(c >> row_shift_);
      const double x0 = min_x_ + cx * cell_w_, x1 = x0 + cell_w_;
      const double y0 = min_y_ + cy * cell_h_, y1 = y0 + cell_h_;
      const double dx = q.x < x0 ? x0 - q.x : (q.x > x1 ? q.x - x1 : 0);
      const double dy = q.y < y0 ? y0 - q.y : (q.y > y1 ? q.y - y1 : 0);
      const double b = best[num_best - 1].first;
      if (dx * dx + dy * dy > b * b * (1 + 1e-9)) return;
    }
    for_vehicles(c, bound, admit);
  };
  auto is_live = [&](int cx, int cy) {
    const uint32_t c = CellIndex(cx, cy);
    return (live[c / 64] >> (c % 64)) & 1;
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
    // two side columns — O(r) cells, clipped to the grid, of which only
    // the occupied ones are visited.
    const int x0 = qcx - r, x1 = qcx + r, y0 = qcy - r, y1 = qcy + r;
    const int cx_lo = std::max(0, x0), cx_hi = std::min(cols_ - 1, x1);
    for (int cy = std::max(0, y0); cy <= std::min(rows_ - 1, y1); ++cy) {
      if (cy == y0 || cy == y1) {
        for_live_cells(cy, cx_lo, cx_hi, scan_cell);
        continue;
      }
      if (x0 >= 0 && is_live(x0, cy)) scan_cell(CellIndex(x0, cy));
      if (x1 < cols_ && is_live(x1, cy)) scan_cell(CellIndex(x1, cy));
    }
  }

  for (size_t i = 0; i < num_best; ++i) out[i] = best[i].second;
  return num_best;
}

}  // namespace dispatch
}  // namespace structride
