// Real-world road-network import: parsers that build a frozen RoadNetwork
// straight from on-disk graph files, for the two formats metro-scale
// benchmarks actually come in:
//
//  * 9th DIMACS Implementation Challenge shortest-path format — a `.gr`
//    arc file (`c` comments, one `p sp <n> <m>` problem line, `a <u> <v>
//    <w>` arcs with 1-based node ids) plus its sibling `.co` coordinate
//    file (`p aux sp co <n>`, `v <id> <x> <y>`). Arcs are directed in the
//    file; the import folds them onto the undirected RoadNetwork, keeping
//    the cheapest cost per unordered pair and dropping self loops.
//
//  * A line-delimited OSM-extract edge list (the output of preprocessing
//    an OSM cut offline): `#` comments, `n <id> <x> <y>` nodes with
//    arbitrary int64 ids (densely remapped in first-seen order), and
//    `e <u> <v> <cost>` undirected edges.
//
// Two normalizations make imported graphs honor the invariants the rest of
// the system assumes (see ImportOptions):
//
//  * Admissibility rescale: generators guarantee edge cost >= Euclidean
//    length, which A*, pruneGDP's reachability prune, the share-graph
//    builder's lower-bound pair screen and the insertion operator's
//    lower-bound walk rely on (roadnet/road_network.h).
//    File coordinates and costs come in unrelated units, so positions are
//    uniformly scaled by min(1, min_edge cost/euclid) — angles and
//    relative distances are preserved, and the Euclidean lower bound
//    becomes admissible again (in the worst case it degrades toward 0,
//    which is still admissible, only a weaker screen).
//
//  * Largest-component restriction: workload generation samples random
//    endpoints and expects finite costs; real extracts ship disconnected
//    fragments. Nodes outside the largest connected component are dropped
//    and ids densely remapped in ascending order.
//
// Every parser reports malformed input through its error string (never
// SR_CHECK), so callers — and the adversarial tests — can observe failures.
// All imports are deterministic: node and edge order are functions of the
// file contents alone.

#pragma once

#include <cstddef>
#include <string>

#include "roadnet/road_network.h"

namespace structride {

struct ImportOptions {
  /// Drop everything outside the largest connected component (see above).
  bool restrict_to_largest_component = true;
  /// Uniformly rescale positions so every edge cost >= Euclidean length.
  /// Turning this off makes the share-graph pair screen and the insertion
  /// screen lossy on any file whose coordinates outrun its costs: they
  /// would drop shareable pairs and feasible insertions.
  bool scale_positions_to_admissible = true;
};

struct ImportStats {
  size_t file_nodes = 0;      ///< nodes declared in the file
  size_t file_arcs = 0;       ///< arc/edge lines parsed (before folding)
  size_t self_arcs = 0;       ///< dropped u == v arcs
  size_t duplicate_arcs = 0;  ///< folded onto an existing unordered pair
  size_t kept_nodes = 0;      ///< nodes in the resulting network
  size_t kept_edges = 0;      ///< undirected edges in the resulting network
  size_t dropped_component_nodes = 0;  ///< outside the largest component
  double position_scale = 1.0;         ///< admissibility rescale factor
};

/// DIMACS import from a `.gr` arc file and its `.co` coordinate file.
/// Returns false (with \p error set) on malformed input: arcs before the
/// problem line, out-of-range ids, negative costs, a declared arc count
/// that mismatches the body, missing coordinates, duplicate coordinate
/// lines. CRLF line endings are accepted.
bool ImportDimacs(const std::string& gr_path, const std::string& co_path,
                  const ImportOptions& options, RoadNetwork* out,
                  ImportStats* stats, std::string* error);

/// OSM-extract edge-list import (format above). Returns false on malformed
/// input: duplicate node ids, edges naming undeclared nodes, non-positive
/// costs.
bool ImportOsmEdgeList(const std::string& path, const ImportOptions& options,
                       RoadNetwork* out, ImportStats* stats,
                       std::string* error);

/// Sniffs the file and dispatches: DIMACS when the first meaningful line is
/// a `c`/`p` record (the `.co` sibling is derived by swapping the `.gr`
/// extension), OSM edge list otherwise. Snapshot containers are rejected
/// here — load those through roadnet/snapshot.h.
bool ImportGraphFile(const std::string& path, const ImportOptions& options,
                     RoadNetwork* out, ImportStats* stats, std::string* error);

}  // namespace structride
