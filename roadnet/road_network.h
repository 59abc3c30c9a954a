// The road network substrate: an undirected weighted graph with planar node
// positions. Edge weights are travel costs (abstract seconds) and are
// guaranteed by every generator (>= 1.05x by default) — and by the
// importer's admissibility rescale (roadnet/importer.h, on by default) — to
// be >= the Euclidean distance between the endpoints, so straight-line
// distance never exceeds road cost. A*, pruneGDP's reachability prune, the
// share-graph builder's lower-bound pair screens and the insertion
// operator's lower-bound walk rely on this for exactness; on a network that
// breaks it the screens drop shareable pairs and feasible insertions and
// change every dispatcher's outcomes.
//
// Memory layout (DESIGN.md §"Memory layout"): the graph is built through
// AddNode/AddEdge into per-node vectors, then *frozen* into a CSR view —
// one offsets array plus one contiguous arc array — that every search
// backend iterates. Freeze() is idempotent and also runs lazily on the
// first arcs() call; after it, AddNode/AddEdge are contract violations
// (SR_CHECK). Freezing must happen before the network is shared across
// threads (constructing any TravelCostEngine does it).
//
// Ownership (DESIGN.md §"Graph import and persistence"): every accessor
// reads through borrowed views (positions/offsets/arcs spans). A network
// built through AddNode/AddEdge owns its buffers and points the views at
// them on Freeze(); a network loaded from a snapshot borrows the views
// straight out of the (possibly mmap-ed) section payloads and keeps the
// backing GraphSource alive through a type-erased shared_ptr. The hot
// paths cannot tell the difference.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geo/angle.h"
#include "util/logging.h"
#include "util/span.h"

namespace structride {

using NodeId = int32_t;

class RoadNetwork {
 public:
  struct Arc {
    NodeId to = 0;
    double cost = 0;
  };
  /// Contiguous view of one node's arcs in the frozen CSR.
  using ArcSpan = Span<const Arc>;

  RoadNetwork() = default;
  // Views alias the owned vectors' heap buffers, which vector moves
  // preserve; copies would alias the source's buffers, so they are banned.
  RoadNetwork(RoadNetwork&&) = default;
  RoadNetwork& operator=(RoadNetwork&&) = default;
  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;

  /// Adopts already-frozen CSR sections owned elsewhere (a loaded snapshot):
  /// the returned network is frozen and borrows every buffer; \p payload
  /// keeps the backing storage (e.g. the mmap-ed GraphSource) alive for the
  /// network's lifetime. The sections must already satisfy the CSR
  /// invariants — the snapshot loader validates them before calling this.
  static RoadNetwork FromFrozenSections(Span<const Point> positions,
                                        Span<const uint32_t> offsets,
                                        Span<const Arc> arcs, size_t num_edges,
                                        std::shared_ptr<const void> payload) {
    RoadNetwork net;
    net.positions_view_ = positions;
    net.offsets_view_ = offsets;
    net.arcs_view_ = arcs;
    net.num_edges_ = num_edges;
    net.payload_ = std::move(payload);
    net.frozen_ = true;
    return net;
  }

  NodeId AddNode(Point position) {
    SR_CHECK(!frozen_);
    positions_.push_back(position);
    adjacency_.emplace_back();
    positions_view_ = {positions_.data(), positions_.size()};
    return static_cast<NodeId>(positions_.size() - 1);
  }

  /// Adds an undirected edge (two arcs) with the given travel cost.
  void AddEdge(NodeId u, NodeId v, double cost) {
    SR_CHECK(!frozen_);
    SR_CHECK(u >= 0 && static_cast<size_t>(u) < positions_.size());
    SR_CHECK(v >= 0 && static_cast<size_t>(v) < positions_.size());
    adjacency_[static_cast<size_t>(u)].push_back({v, cost});
    adjacency_[static_cast<size_t>(v)].push_back({u, cost});
    ++num_edges_;
  }

  /// Compacts the per-node adjacency into the flat CSR arrays and frees the
  /// build-time vectors. Idempotent; arc order per node is insertion order,
  /// so pre-freeze and post-freeze traversals visit identical sequences.
  void Freeze() {
    if (frozen_) return;
    const size_t n = positions_.size();
    offsets_.resize(n + 1);
    offsets_[0] = 0;
    for (size_t v = 0; v < n; ++v) {
      offsets_[v + 1] =
          offsets_[v] + static_cast<uint32_t>(adjacency_[v].size());
    }
    arcs_.reserve(offsets_[n]);
    for (size_t v = 0; v < n; ++v) {
      arcs_.insert(arcs_.end(), adjacency_[v].begin(), adjacency_[v].end());
    }
    std::vector<std::vector<Arc>>().swap(adjacency_);
    offsets_view_ = {offsets_.data(), offsets_.size()};
    arcs_view_ = {arcs_.data(), arcs_.size()};
    frozen_ = true;
  }

  bool frozen() const { return frozen_; }
  /// True when the CSR buffers are borrowed from a loaded snapshot.
  bool borrowed() const { return payload_ != nullptr; }

  size_t num_nodes() const { return positions_view_.size(); }
  size_t num_edges() const { return num_edges_; }

  const Point& position(NodeId v) const {
    return positions_view_[static_cast<size_t>(v)];
  }

  /// The node's arcs as a CSR span; lazily freezes on first use (must not
  /// race with other threads — freeze explicitly before sharing).
  ArcSpan arcs(NodeId v) const {
    if (!frozen_) const_cast<RoadNetwork*>(this)->Freeze();
    const size_t u = static_cast<size_t>(v);
    return {arcs_view_.data() + offsets_view_[u],
            offsets_view_[u + 1] - offsets_view_[u]};
  }

  // Whole-graph section views for serialization (roadnet/snapshot.cc);
  // lazily freeze like arcs().
  Span<const Point> positions() const { return positions_view_; }
  Span<const uint32_t> csr_offsets() const {
    if (!frozen_) const_cast<RoadNetwork*>(this)->Freeze();
    return offsets_view_;
  }
  Span<const Arc> csr_arcs() const {
    if (!frozen_) const_cast<RoadNetwork*>(this)->Freeze();
    return arcs_view_;
  }

  double EuclidLowerBound(NodeId u, NodeId v) const {
    return EuclidDistance(position(u), position(v));
  }

  /// Heap bytes actually reserved: capacity-based for every vector so slack
  /// is charged, plus the per-node vector headers while unfrozen. A borrowed
  /// network charges its section views instead (those bytes are resident
  /// once touched, whether read into a heap buffer or mmap-ed).
  size_t MemoryBytes() const {
    size_t bytes = positions_.capacity() * sizeof(Point);
    bytes += offsets_.capacity() * sizeof(uint32_t);
    bytes += arcs_.capacity() * sizeof(Arc);
    bytes += adjacency_.capacity() * sizeof(std::vector<Arc>);
    for (const auto& arcs : adjacency_) bytes += arcs.capacity() * sizeof(Arc);
    if (payload_ != nullptr) {
      bytes += positions_view_.size() * sizeof(Point);
      bytes += offsets_view_.size() * sizeof(uint32_t);
      bytes += arcs_view_.size() * sizeof(Arc);
    }
    return bytes;
  }

 private:
  std::vector<Point> positions_;
  std::vector<std::vector<Arc>> adjacency_;  ///< build-time; empty once frozen
  std::vector<uint32_t> offsets_;            ///< CSR: arcs of v at [v, v+1)
  std::vector<Arc> arcs_;                    ///< CSR: all arcs, node-major
  // What the accessors read: the owned vectors (set by AddNode/Freeze) or a
  // loaded snapshot's sections (set by FromFrozenSections).
  Span<const Point> positions_view_;
  Span<const uint32_t> offsets_view_;
  Span<const Arc> arcs_view_;
  std::shared_ptr<const void> payload_;  ///< keeps borrowed sections alive
  size_t num_edges_ = 0;
  bool frozen_ = false;
};

}  // namespace structride
