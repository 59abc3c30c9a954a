// The engine-maintained fleet index (DESIGN.md §12): a uniform grid over
// the road network's bounding box holding every in-service vehicle at its
// current node, keyed by fleet-storage index and tagged with the shard it
// resides in. The simulation engine updates it at exactly the sites that
// change what it holds — a stop completion moves a vehicle
// (Vehicle::AdvanceTo), a downtime scenario flips in_service, a migration
// re-homes it — so no dispatcher rebuilds a fleet index per batch, and a
// round pays only for the vehicles that changed.
//
// Exactness contract: a query returns exactly the first k entries of the
// eligible vehicles sorted by straight-line distance ascending, fleet index
// ascending on ties (tests/dispatch_test.cc holds it to that full sort).
// Eligible means in service (scenario downtime takes a vehicle off the
// candidate market; it still finishes its committed stops) and resident in
// the queried shard, or in any shard when the shard is negative.
//
// Layout: the index is keyed by node, because vehicles stack — idle ones
// wait where their last rider got off. The road network's nodes sit in one
// contiguous array grouped by grid cell, each with its position inline and
// its stack of in-service vehicles: a block of one shared pool holding each
// vehicle's index and shard side by side. Within its cell's range a node
// sits in the occupied prefix while its stack is non-empty. Per shard (and
// for all shards together), one bit per cell says whether the cell holds
// any of that shard's in-service vehicles, so a ring row of the grid walk
// is a word or two of bits and a query visits only its shard's occupied
// cells. A query computes each occupied node's distance once, so one
// comparison skips a whole stack, and reads an admitted stack as one
// contiguous run; candidates are ranked by the (distance, index) pair, a
// total order, so the visiting order never shows. Every update is O(1)
// (amortized when a stack outgrows its block): swap-remove or append one
// stack entry, swap at most one node in or out of its cell's occupied
// prefix, bump two per-cell counts (flipping a bit when one reaches or
// leaves zero). Stack blocks have power-of-two capacities and an emptied
// node's block returns to a free list of its size, so the pool stops
// growing once it has held the largest stacks. Queries stage candidates on
// the calling thread's scratch arena, so concurrent readers query without
// touching the heap.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/vehicle.h"

namespace structride {
namespace dispatch {

class FleetIndex {
 public:
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  /// Indexes \p fleet over \p net: vehicle v at its node, in service per
  /// Vehicle::in_service, resident in shard_of[v] (each in
  /// [0, num_shards)). The grid has about one cell per vehicle.
  void Reset(const RoadNetwork& net, const std::vector<Vehicle>& fleet,
             const std::vector<int>& shard_of, int num_shards);

  /// Vehicle \p v now stands at \p node.
  void Move(size_t v, NodeId node);
  /// Vehicle \p v entered (true) or left (false) service.
  void SetInService(size_t v, bool in_service);
  /// Vehicle \p v now resides in \p shard.
  void SetShard(size_t v, int shard);
  /// How many calls to Move, SetInService and SetShard changed the index
  /// since Reset. Equal counts bracket a span in which every query with
  /// the same arguments gives the same answer.
  uint64_t mutations() const { return mutations_; }

  /// Writes up to \p k eligible fleet indices nearest \p from into \p out
  /// (room for k), ordered by (distance, index); returns the count.
  size_t KNearestInto(NodeId from, size_t k, int shard, size_t* out) const {
    return QueryInto(from, k, -1.0, shard, out);
  }
  /// As KNearestInto, keeping only vehicles within straight-line distance
  /// \p max_dist: the prefix an early-breaking scan over the distance-sorted
  /// fleet would have visited. A negative radius matches nothing (it is
  /// not the "unbounded" sentinel).
  size_t KNearestWithinInto(NodeId from, size_t k, double max_dist, int shard,
                            size_t* out) const {
    if (max_dist < 0) return 0;
    return QueryInto(from, k, max_dist, shard, out);
  }
  /// The in-service vehicle nearest \p from in any shard (ties: lower
  /// index), or kNone — the boundary escrow's best-candidate oracle.
  size_t Nearest(NodeId from) const {
    size_t v = kNone;
    QueryInto(from, 1, -1.0, -1, &v);
    return v;
  }

  /// SR_CHECKs that the index holds vehicle \p v at \p node, in service
  /// iff \p in_service, resident in \p shard.
  void CheckVehicle(size_t v, NodeId node, bool in_service, int shard) const;

 private:
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();

  /// A node of the grid: its position and its stack, the first `size`
  /// entries of the pool block at `stack` (room for `capacity`).
  struct NodeSlot {
    Point pos;
    NodeId node = 0;
    uint32_t stack = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  /// A cell's range in slots_ and the length of its occupied prefix.
  struct Cell {
    uint32_t begin = 0;
    uint32_t occupied = 0;
  };
  /// One vehicle in a stack: what a query reads to admit it. A free block's
  /// first entry holds the next free block of its size in `vehicle`.
  struct StackEntry {
    uint32_t vehicle = 0;
    int32_t shard = 0;
  };

  size_t QueryInto(NodeId from, size_t k, double max_dist, int shard,
                   size_t* out) const;
  /// The grid column holding abscissa \p x and the row holding ordinate
  /// \p y, clamped to the grid.
  int ColOf(double x) const;
  int RowOf(double y) const;
  uint32_t CellIndex(int cx, int cy) const {
    return static_cast<uint32_t>((cy << row_shift_) | cx);
  }
  void Insert(size_t v);
  void Erase(size_t v);
  void SwapSlots(uint32_t a, uint32_t b);
  /// Pool blocks of \p capacity entries, a power of two.
  uint32_t AllocateBlock(uint32_t capacity);
  void FreeBlock(uint32_t block, uint32_t capacity);
  /// Counts one more (\p delta = 1) or one fewer (-1) in-service vehicle of
  /// the shard whose count row is \p row in cell \p c.
  void CountVehicle(size_t row, uint32_t c, int delta);
  /// The count row of \p shard: its own, or the all-shard row when negative.
  size_t CountRow(int shard) const {
    return shard < 0 ? eligible_.size() : static_cast<size_t>(shard);
  }
  /// The occupancy bits of count row \p row: bit c is set iff cell c holds
  /// one of its vehicles.
  const uint64_t* LiveBits(size_t row) const {
    return live_bits_.data() + row * (cells_.size() / 64);
  }
  size_t Eligible(int shard) const {
    return shard < 0 ? in_service_count_ : eligible_[static_cast<size_t>(shard)];
  }

  const RoadNetwork* net_ = nullptr;
  double min_x_ = 0, min_y_ = 0;
  double cell_w_ = 1, cell_h_ = 1;
  int cols_ = 1, rows_ = 1;
  /// Cell (cx, cy) has index cy << row_shift_ | cx: each grid row is padded
  /// to a power of two, so a row's cells are one run of bits and a cell's
  /// column and row come back by mask and shift.
  int row_shift_ = 0;
  /// Every node of the network, grouped by cell: cell c owns the slots from
  /// cells_[c].begin up to the next cell's begin, whose first
  /// cells_[c].occupied are the nodes with a non-empty stack. Padding
  /// cells own none.
  std::vector<NodeSlot> slots_;
  std::vector<Cell> cells_;
  /// Per node: its position in slots_, and its cell.
  std::vector<uint32_t> slot_of_;
  std::vector<uint32_t> cell_of_;
  /// Count row s (one per shard, then one for all shards) holds, per cell,
  /// the in-service vehicles resident in s; its bit row (LiveBits) has
  /// bit c set iff that count is non-zero.
  std::vector<uint32_t> cell_count_;
  std::vector<uint64_t> live_bits_;
  /// The stack blocks, and per capacity class (log2 of the capacity) the
  /// first free block, or kNil.
  std::vector<StackEntry> pool_;
  std::vector<uint32_t> free_block_;
  /// Per fleet index: current node, resident shard, and the vehicle's
  /// position in its node's stack (kNil while out of service).
  std::vector<NodeId> node_;
  std::vector<int> shard_;
  std::vector<uint32_t> stack_pos_;
  /// In-service vehicles per shard and in total.
  std::vector<size_t> eligible_;
  size_t in_service_count_ = 0;
  uint64_t mutations_ = 0;
};

}  // namespace dispatch
}  // namespace structride
