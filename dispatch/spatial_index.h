// Grid-bucket spatial index over the fleet's current positions. Dispatchers
// rebuild it once per batch (vehicle positions only change between batches;
// committing a schedule does not move a vehicle) and answer every
// nearest-candidate scan from it instead of sorting the whole fleet by
// distance per scan.
//
// Exactness contract: KNearest(from, k) returns exactly the first k entries
// of the fleet sorted by straight-line distance ascending, vehicle index
// ascending on ties (tests/dispatch_test.cc holds it to that full sort).
// Vehicles that are out of service are omitted (scenario downtime takes
// them off the candidate market; they still finish their committed stops).
//
// Storage is CSR (one offsets plane, one flat item plane) rather than a
// vector-of-vectors, and Rebuild() refills the planes in place — a
// persistent index serves a steady-state batch without heap allocation
// (DESIGN.md §8). The *Into query variants write fleet indices into a
// caller buffer, staging candidates on the calling thread's scratch arena,
// so concurrent workers query without touching the heap.

#pragma once

#include <cstddef>
#include <vector>

#include "core/vehicle.h"

namespace structride {
namespace dispatch {

class FleetSpatialIndex {
 public:
  FleetSpatialIndex() = default;
  FleetSpatialIndex(const std::vector<Vehicle>& fleet, const RoadNetwork& net) {
    Rebuild(fleet, net);
  }

  /// Re-indexes the fleet's batch-start positions, reusing every plane's
  /// capacity. Call once per batch. Indices stored and returned are
  /// view-local; a shard's restricted view (DESIGN.md §12) yields a
  /// shard-local index over its residents only.
  void Rebuild(const FleetView& fleet, const RoadNetwork& net);
  void Rebuild(const std::vector<Vehicle>& fleet, const RoadNetwork& net);

  /// The k nearest fleet indices to \p from, ordered by (distance, index).
  std::vector<size_t> KNearest(NodeId from, size_t k) const {
    std::vector<size_t> out(k);
    out.resize(QueryInto(from, k, -1.0, out.data()));
    return out;
  }

  /// Every fleet index with straight-line distance <= \p max_dist, nearest
  /// first, capped at \p k — the prefix an early-breaking scan over the
  /// distance-sorted fleet would have visited. A negative radius matches
  /// nothing (it is not the "unbounded" sentinel).
  std::vector<size_t> KNearestWithin(NodeId from, size_t k,
                                     double max_dist) const {
    if (max_dist < 0) return {};
    std::vector<size_t> out(k);
    out.resize(QueryInto(from, k, max_dist, out.data()));
    return out;
  }

  /// Allocation-free query twins: write up to \p k fleet indices into
  /// \p out (room for k) and return the count written.
  size_t KNearestInto(NodeId from, size_t k, size_t* out) const {
    return QueryInto(from, k, -1.0, out);
  }
  size_t KNearestWithinInto(NodeId from, size_t k, double max_dist,
                            size_t* out) const {
    if (max_dist < 0) return 0;
    return QueryInto(from, k, max_dist, out);
  }

  size_t MemoryBytes() const;

 private:
  size_t QueryInto(NodeId from, size_t k, double max_dist, size_t* out) const;
  /// Bucket (cx, cy) as a CSR slice of bucket_items_.
  const size_t* BucketBegin(int cx, int cy, size_t* len) const {
    size_t cell = static_cast<size_t>(cy) * static_cast<size_t>(cols_) +
                  static_cast<size_t>(cx);
    *len = bucket_offsets_[cell + 1] - bucket_offsets_[cell];
    return bucket_items_.data() + bucket_offsets_[cell];
  }

  const RoadNetwork* net_ = nullptr;
  std::vector<Point> positions_;  ///< per fleet index, batch-start position
  std::vector<char> active_;      ///< per fleet index, in_service at build
  double min_x_ = 0, min_y_ = 0;
  double cell_w_ = 1, cell_h_ = 1;
  int cols_ = 1, rows_ = 1;
  /// CSR buckets: cell c holds bucket_items_[bucket_offsets_[c] ..
  /// bucket_offsets_[c+1]), ascending fleet indices.
  std::vector<size_t> bucket_offsets_;
  std::vector<size_t> bucket_items_;
  std::vector<size_t> cell_of_;  ///< rebuild scratch: cell per active vehicle
};

}  // namespace dispatch
}  // namespace structride
