// Geo-sharding support (DESIGN.md §12): the zone partition of a metro and
// the per-zone runtime bundle the simulation engine coordinates.
//
// The partition reuses the FleetIndex grid discipline — a uniform
// grid over the road network's bounding box, row-major cells, every cell
// past the shard count folded into the last shard — so zone membership is a
// pure function of a node's position: cheap enough to evaluate on every
// request release and stop completion, and identical across runs. With one
// shard every node maps to zone 0 and the whole machinery degenerates to
// the pre-sharding engine (the bitwise 1-shard gate).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/entity_pools.h"
#include "dispatch/dispatcher.h"
#include "util/arena.h"

namespace structride {

/// Row-major uniform-grid zone partition over the network's bounding box.
class ShardPartition {
 public:
  /// Partitions \p net into \p num_shards zones. \p grid_cols overrides the
  /// column count (0 picks ceil(sqrt(num_shards))); rows follow as
  /// ceil(num_shards / cols). Cells beyond num_shards-1 fold into the last
  /// shard so every node maps into [0, num_shards).
  void Build(const RoadNetwork& net, int num_shards, int grid_cols = 0);

  int ShardOfNode(NodeId node) const;

  int num_shards() const { return num_shards_; }
  int cols() const { return cols_; }
  int rows() const { return rows_; }

 private:
  const RoadNetwork* net_ = nullptr;
  int num_shards_ = 1;
  int cols_ = 1, rows_ = 1;
  double min_x_ = 0, min_y_ = 0;
  double cell_w_ = 1, cell_h_ = 1;
};

/// Everything one zone owns: its dispatcher instance, its incrementally
/// maintained share graph (always built; the only run-scoped builder the
/// shard has, DESIGN.md §7), pending-pool SoA planes and batch arena, the
/// resident vehicle set (ascending fleet indices — the restricted
/// FleetView's member plane) and the round's commit log, its private
/// travel-cost cache partition, and its dispatch context. The
/// simulation engine drives all shards from the shared EventQueue and
/// ThreadPool under a buffer-then-commit round protocol (DESIGN.md §12):
/// the batch phase touches only this struct plus read-only global planes
/// (so shards may run concurrently), and the engine merges the ctx output
/// buffers serially in shard-id order, so N-shard runs stay deterministic.
struct ShardRuntime {
  int id = 0;
  /// Resident fleet-storage indices, strictly ascending, and their
  /// inverse: each member's position in the plane, its view-local index.
  std::vector<size_t> members;
  MemberRanks ranks;
  /// View-local indices of the vehicles FleetView::Commit changed this
  /// round; the engine syncs their stop events and clears it.
  std::vector<size_t> commit_log;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<ShareGraphBuilder> sharegraph;
  /// This shard's travel-cost cache partition
  /// (TravelCostEngine::MakeCachePartition), owned by the simulation engine
  /// so it stays warm across runs; null at 1 shard (the root engine serves
  /// directly, preserving the bitwise 1-shard gate).
  TravelCostEngine* cache = nullptr;
  DispatchContext ctx;
  EpochArena arena;
  RequestSoA pending_soa;
  /// Requests this shard has assigned over the whole run (the load-balance
  /// numerator of RunMetrics::shard_load_max_over_mean).
  uint64_t assigned_total = 0;
  /// Wall seconds this shard's OnBatch calls have taken over the run (the
  /// imbalance numerator of RunMetrics::shard_round_time_max_over_mean) and
  /// in the last round alone.
  double batch_seconds_total = 0;
  double last_batch_seconds = 0;
  /// Heap allocations observed strictly around the last OnBatch. Only
  /// meaningful when the batch phase ran serially (concurrent shards share
  /// the process-wide counter); the engine then sums per-shard deltas to
  /// reproduce the pre-sharding steady-state alloc gate exactly.
  uint64_t last_batch_allocs = 0;
  /// Per-run baselines for the partition's counters, captured at run start
  /// so RunMetrics::shard_sp_queries / shard_cache_hit_rate report this run
  /// only even though partitions stay warm across runs.
  uint64_t queries_at_run_start = 0;
  uint64_t lookups_at_run_start = 0;
};

/// max(loads) / mean(loads); 0 when every load is zero (no assignments).
double ShardLoadMaxOverMean(const std::vector<uint64_t>& loads);

/// Order-sensitive FNV-1a fingerprint of a shard's member plane. The engine
/// snapshots every shard's fingerprint before the (possibly concurrent)
/// batch phase and SR_CHECKs them unchanged after: no shard may touch any
/// member plane — its own included — until the serial commit phase.
uint64_t MemberPlaneFingerprint(const std::vector<size_t>& members);

}  // namespace structride
