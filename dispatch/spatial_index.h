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
// Each cell holds its vehicles' positions inline, in no particular order:
// candidates are ranked by the (distance, index) pair, a total order, so
// the visiting order never shows. Updates are O(1) swap-removes and
// appends; a cell's storage grows only past its largest occupancy so far.
// Queries stage candidates on the calling thread's scratch arena, so
// concurrent readers query without touching the heap.

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
  struct Entry {
    Point pos;
    uint32_t vehicle = 0;
    int32_t shard = 0;
  };
  static constexpr uint32_t kNoCell = std::numeric_limits<uint32_t>::max();

  size_t QueryInto(NodeId from, size_t k, double max_dist, int shard,
                   size_t* out) const;
  uint32_t CellOf(const Point& p) const;
  void Insert(size_t v);
  void Erase(size_t v);
  size_t Eligible(int shard) const {
    return shard < 0 ? in_service_count_ : eligible_[static_cast<size_t>(shard)];
  }

  const RoadNetwork* net_ = nullptr;
  double min_x_ = 0, min_y_ = 0;
  double cell_w_ = 1, cell_h_ = 1;
  int cols_ = 1, rows_ = 1;
  std::vector<std::vector<Entry>> cells_;
  /// Per fleet index: current node, resident shard, in-service flag, and
  /// (while in service) its cell and slot in that cell.
  std::vector<NodeId> node_;
  std::vector<int> shard_;
  std::vector<char> in_service_;
  std::vector<uint32_t> cell_;
  std::vector<uint32_t> slot_;
  /// In-service vehicles per shard and in total.
  std::vector<size_t> eligible_;
  size_t in_service_count_ = 0;
};

}  // namespace dispatch
}  // namespace structride
