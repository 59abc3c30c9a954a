// Dispatcher interface and registry. A dispatcher sees one batch at a time:
// the open (pending) requests and the fleet, and assigns by committing
// schedules onto vehicles. Batch methods may leave requests pending across
// rounds; online methods must assign-or-reject each request immediately.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/entity_pools.h"
#include "core/insertion.h"
#include "core/vehicle.h"
#include "group/grouping.h"
#include "sharegraph/builder.h"
#include "util/arena.h"

namespace structride {

namespace dispatch {
class FleetIndex;
}  // namespace dispatch

struct DispatchConfig {
  double penalty_coefficient = 10;
  int vehicle_capacity = 4;
  GroupingOptions grouping;
  ShareGraphBuilderOptions sharegraph;
  /// Global cap on enumerated trip nodes per batch (RTV's ILP size guard).
  int64_t ilp_node_cap = 200000;
  /// Threads for a multi-shard round's batch phase (DESIGN.md §12); the
  /// engine runs min(num_threads, num_shards) of them. Dispatchers run on
  /// one thread, and outcomes never depend on this.
  int num_threads = 1;
  /// SARD: the literal Alg.-3 reading (propose to the vehicle needing the
  /// most additional travel first) instead of the best-first default.
  bool sard_propose_worst_first = false;
  /// SARD: when every proposal of a group is rejected, retry its halves
  /// (recursively, down to singletons) before leaving the whole group
  /// pending — otherwise the clique partition re-forms the identical group
  /// next batch and its members starve until they expire (DESIGN.md §4).
  bool sard_split_rejected_groups = true;
  /// Selects the share graph GAS and RTV consume. `true` reads the
  /// engine's per-shard run builder (DispatchContext::sharegraph), which
  /// lifecycle events retire requests from and each round folds only the
  /// fresh slice into. `false` runs the rebuild reference: GAS/RTV rebuild
  /// the graph from scratch over the whole pending pool each batch, which
  /// the incremental path must match on served / unified_cost / sp_queries
  /// and the graph edge set (DESIGN.md §7; pinned by tests, and
  /// abl_incremental_sharegraph measures the pair checks it saves). SARD
  /// always reads the run builder, so the flag does not affect it.
  bool incremental_sharegraph = true;
  /// Geo-sharding (DESIGN.md §12): partition the metro into this many zones
  /// and run one ShardRuntime (dispatcher + share graph + SoA planes + arena)
  /// per zone, with cross-shard trips handled by the boundary escrow and
  /// vehicle-migration events. 1 = single-region, bitwise identical to the
  /// pre-sharding engine.
  int num_shards = 1;
  /// Partition grid columns override; 0 picks ceil(sqrt(num_shards)).
  int shard_grid_cols = 0;
  /// Per-shard travel-cost cache partition sizing under geo-sharding: total
  /// cached pairs per partition (0 = the root engine's capacity divided by
  /// num_shards). Each shard queries only its own partition, so concurrent
  /// shards never contend on a cache lock and per-shard sp_queries stay
  /// exact.
  size_t shard_cache_capacity = 0;
};

/// An empty relocation for an idle vehicle (the repositioning hook,
/// DESIGN.md §6): move view-local fleet index \p vehicle (relative to
/// DispatchContext::fleet) toward \p target; the engine translates to
/// fleet storage via FleetView::global_index before applying.
struct RepositionMove {
  size_t vehicle = 0;
  NodeId target = 0;
};

struct DispatchContext {
  double now = 0;
  TravelCostEngine* engine = nullptr;
  /// The vehicles this dispatcher may scan and commit to. Unrestricted in
  /// single-region runs; a shard's resident vehicles under geo-sharding
  /// (DESIGN.md §12). All vehicle indices exchanged through this context are
  /// view-local. Commits go through FleetView::Commit, which logs them.
  FleetView fleet;
  /// The engine-maintained fleet index over fleet-storage indices
  /// (DESIGN.md §12). Dispatchers query it through
  /// dispatch::NearestVehiclesInto (dispatch/common.h), which keeps only
  /// `fleet`'s residents and answers view-local indices. Required by SARD,
  /// pruneGDP, TicketAssign+ and DARM+DPRS.
  const dispatch::FleetIndex* fleet_index = nullptr;
  /// The shard whose residents `fleet` holds; -1 for an unrestricted view.
  int fleet_shard = -1;
  /// Open requests in release order.
  std::vector<const Request*> pending;
  /// Streaming service mode only (DESIGN.md §13): wall-clock seconds (run
  /// epoch) at which the ingestion thread pushed each pending request,
  /// parallel to `pending`. Dispatchers may consult it for latency-aware
  /// ordering; empty in replay mode.
  std::vector<double> pending_ingest_wall;
  /// True when this invocation was triggered by a single request-release
  /// event (the scenario-enabled online dispatch mode) rather than a batch
  /// tick. Batch methods may treat per-event rounds like tiny batches.
  bool online_event = false;
  /// The shard's run-scoped, incrementally maintained share-graph builder
  /// (DESIGN.md §7), owned by the simulation engine and always set by it:
  /// closed requests have already been retired by lifecycle events, so a
  /// dispatcher only syncs the fresh slice in
  /// (ShareGraphBuilder::SyncToPending) and consumes the graph. Required by
  /// SARD, and by GAS and RTV unless incremental_sharegraph is off.
  ShareGraphBuilder* sharegraph = nullptr;
  /// Batch-scoped bump arena, owned by the caller and reset between rounds
  /// (after the dispatcher returns). Dispatchers stage proposals, candidate
  /// schedules and scratch here. Required by SARD, GAS and RTV.
  EpochArena* arena = nullptr;
  /// Structure-of-arrays view over the pending pool, refreshed by the
  /// caller each round (DESIGN.md §8). Required by SARD, GAS and RTV.
  const RequestSoA* pending_soa = nullptr;
  /// Outputs: requests assigned this round; requests the dispatcher gives up
  /// on permanently (online methods reject instead of queueing).
  std::vector<RequestId> assigned;
  std::vector<RequestId> rejected;
  /// Output: relocations the dispatcher proposes for idle vehicles; the
  /// engine applies them after the round, then consults the installed
  /// RepositioningPolicy (if any) for more. No built-in dispatcher fills
  /// this today. Out-of-service, busy or already-repositioning vehicles are
  /// skipped when applying.
  std::vector<RepositionMove> repositions;
};

class Dispatcher {
 public:
  explicit Dispatcher(const DispatchConfig& config) : config_(config) {}
  virtual ~Dispatcher() = default;

  virtual void OnBatch(DispatchContext* ctx) = 0;

  /// Peak instrumented bytes of the dispatcher's dominant structures
  /// (DESIGN.md §4: the substitution for process-RSS measurement).
  size_t MemoryBytes() const { return peak_memory_; }

  /// Exact pair feasibility evaluations spent by this dispatcher's own
  /// per-batch throwaway builders (the rebuild reference; 0 otherwise). The
  /// engine adds its run builder's pair_checks() and surfaces the sum as
  /// RunMetrics::sharegraph_pair_checks; the incremental maintenance bench
  /// gates its ≥2x reduction on it.
  uint64_t SharePairChecks() const { return share_pair_checks_; }

 protected:
  void NotePeak(size_t bytes) {
    if (bytes > peak_memory_) peak_memory_ = bytes;
  }
  /// Accumulate checks from a per-batch throwaway builder.
  void AddPairChecks(uint64_t delta) { share_pair_checks_ += delta; }

  DispatchConfig config_;

 private:
  size_t peak_memory_ = 0;
  uint64_t share_pair_checks_ = 0;
};

/// The paper's dispatcher roster, in comparison order.
std::vector<std::string> AllDispatcherNames();

/// Every name MakeDispatcher accepts (the roster plus aliases like
/// "SARD-O"), in registry order.
const std::vector<std::string>& ListDispatchers();

/// Factory; SR_CHECK-fails on unknown names.
std::unique_ptr<Dispatcher> MakeDispatcher(const std::string& name,
                                           const DispatchConfig& config);

}  // namespace structride
