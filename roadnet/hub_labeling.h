// Pruned-landmark hub labeling (2-hop cover): the paper's fixed
// shortest-path substrate. Exact distances by scatter-gather over one
// pinned node per thread; build via pruned Dijkstra in a hierarchical
// quadtree-center order (a separator-style order: the node nearest the city
// center first, then the centers of the four quadrants, and so on — every
// prefix of the order spreads over the map, which is what keeps grid labels
// small).
//
// Memory layout (DESIGN.md §"Memory layout"): all labels live in one
// contiguous node-major arena addressed by one offset array, stored as two
// parallel planes — hub ranks (int32) and distances (double). Each node's
// run is terminated by a rank sentinel, so every walk over a run stops on a
// single compare per step — no per-node vector headers, no bound checks.
//
// Query (Akiba, Iwata & Yoshida, SIGMOD 2013): each thread keeps one node
// pinned, its label spread into a rank-indexed scratch of n doubles that is
// +inf elsewhere. A query walks only the run of whichever endpoint is not
// pinned and takes the minimum of scratch[rank] + dist; when neither is, the
// source replaces the pinned node first. Successive queries sharing an
// endpoint (one node priced against a candidate set) pay only the gather.
//
// Ownership (DESIGN.md §"Graph import and persistence"): queries read the
// arena through borrowed views. A built labeling owns the planes; a
// snapshot-loaded one borrows them from the (possibly mmap-ed) section
// payloads and keeps the backing GraphSource alive via payload_.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "roadnet/road_network.h"

namespace structride {

class HubLabeling {
 public:
  explicit HubLabeling(const RoadNetwork& net);

  /// Terminates every node's label run; compares greater than any real rank.
  static constexpr int32_t kSentinelRank = INT32_MAX;

  /// Adopts an already-flattened node-major arena owned elsewhere (a loaded
  /// snapshot): \p offsets holds one run start per node, \p ranks / \p dists
  /// are the sentinel-terminated parallel planes, and \p payload keeps the
  /// backing storage alive. The snapshot loader validates the arena
  /// invariants (runs in range, ranks in [0, n) or sentinel, final sentinel
  /// present) before calling this.
  static std::unique_ptr<HubLabeling> FromFrozenSections(
      Span<const uint32_t> offsets, Span<const int32_t> ranks,
      Span<const double> dists, size_t total_entries,
      std::shared_ptr<const void> payload);

  /// Exact shortest-path cost (infinity if disconnected): the minimum of
  /// d(s, h) + d(h, t) over the hubs h the two labels share, bitwise the
  /// same whichever endpoint is pinned. Thread-safe: the only state it
  /// writes is the calling thread's pin.
  double Query(NodeId s, NodeId t) const;

  // Arena section views for serialization (roadnet/snapshot.cc). The rank
  // and distance planes include the per-node sentinels.
  Span<const uint32_t> label_offsets() const { return offsets_view_; }
  Span<const int32_t> rank_plane() const { return ranks_view_; }
  Span<const double> dist_plane() const { return dists_view_; }

  size_t TotalLabelEntries() const { return total_entries_; }
  size_t MemoryBytes() const;

 private:
  HubLabeling() = default;

  static uint64_t NextId();

  // Node-major label arena: node v's run is [offsets[v], sentinel), with
  // ranks ascending per run and dists[k] the matching distance. The vectors
  // hold the owned (built) arena; the views are what queries read and point
  // either at the vectors or at borrowed snapshot sections.
  std::vector<int32_t> ranks_;
  std::vector<double> dists_;
  std::vector<uint32_t> offsets_;  ///< start of node v's run
  Span<const int32_t> ranks_view_;
  Span<const double> dists_view_;
  Span<const uint32_t> offsets_view_;
  std::shared_ptr<const void> payload_;  ///< keeps borrowed sections alive
  size_t total_entries_ = 0;             ///< real entries (sentinels excluded)
  size_t num_nodes_ = 0;
  /// Process-unique, never reused: a thread's pin names the labeling it was
  /// taken in by id, since a labeling rebuilt at a freed one's address
  /// holds other labels.
  uint64_t id_ = NextId();
};

}  // namespace structride
