// The simulation engine: replays a request stream against a fleet and one
// dispatcher, producing the unified metrics the paper plots (unified cost,
// service rate, running time, #SP queries, instrumented memory) plus the
// fault-model counters and per-rider service-quality stats.
//
// Run() is the event-driven continuous-time core (DESIGN.md §6): a binary-
// heap EventQueue over typed events — request release, batch tick, stop
// completion, rider cancellation/expiry, scenario events — with fixed-batch
// dispatch expressed as scheduled tick events. Its outcomes are pinned to
// recorded golden digests (tests/golden_test.cc) across the dispatcher
// roster, the presets, worker-thread and shard counts.
//
// Run() also owns the run's incrementally maintained share graphs, one
// builder per shard (DESIGN.md §7): lifecycle events retire requests from
// them and every dispatch round receives its shard's builder via
// DispatchContext::sharegraph.
//
// Statefulness contract: SpawnFleet fixes the fleet's spawn positions once;
// every Run starts from that spawn with fresh request state, but the fault
// model's RNG (capacity draws, cancellation draws) advances across runs on
// the same engine. Comparisons between algorithms should therefore use one
// freshly constructed engine per run whenever those draws are active.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {

struct SimulationOptions {
  double batch_period = 5;
  uint64_t seed = 1;
  /// Dataset label stamped onto RunMetrics::dataset by the engine, so every
  /// bench row is labeled without each caller remembering to.
  std::string dataset;
  /// Vehicle-capacity distribution N(capacity_mean, capacity_sigma),
  /// clamped to >= 1 (Appendix C); sigma 0 keeps the SpawnFleet capacity.
  double capacity_sigma = 0;
  int capacity_mean = 4;
  /// Rider impatience fault model: each request is a potential canceller
  /// with this probability, leaving if unassigned after Exp(patience).
  double cancellation_rate = 0;
  double cancellation_patience = 60;

  // Streaming service mode (DESIGN.md §13). When on, request releases are
  // no longer replayed from the pre-scheduled EventQueue: a dedicated
  // ingestion thread paces arrivals at `service_qps` wall-clock requests
  // per second (open loop — arrivals never wait for the dispatcher) into a
  // bounded lock-free SPSC ring that the event core drains at every batch
  // boundary. Batch ticks are paced against the wall clock through the
  // virtual-time scale below, so overload is observable: rounds that
  // outrun their wall budget fire late, the ring backs up, and pushes into
  // a full ring are rejected (admission control) and counted as
  // RunMetrics::shed_requests. `false` (the default) is bitwise identical
  // to the replay engine — none of this machinery is constructed.
  bool service_mode = false;
  /// Target offered arrival rate, wall-clock requests/second (> 0).
  double service_qps = 1000;
  /// SPSC ring capacity (rounded up to a power of two): the admission-
  /// control bound on queued-but-undrained arrivals.
  size_t service_queue_capacity = 4096;
  /// Pace arrivals by the stream's own (scaled) inter-arrival gaps instead
  /// of uniform 1/qps spacing — trace-driven rather than generator-driven;
  /// the aggregate rate is `service_qps` either way.
  bool service_trace_arrivals = false;
  /// Virtual seconds that elapse per wall second while arrivals are live
  /// (0 = derive from service_qps so the stream's demand density maps onto
  /// the target rate: qps * virtual_span / num_requests). Once the stream
  /// is exhausted and drained, the tail of the run free-runs.
  double service_time_scale = 0;
};

struct RunMetrics {
  std::string dataset;
  std::string algorithm;
  double unified_cost = 0;  ///< travel + penalty over unserved requests
  double travel_cost = 0;
  double penalty_cost = 0;
  double service_rate = 0;
  double running_time = 0;  ///< dispatcher compute seconds (wall clock)
  uint64_t sp_queries = 0;  ///< travel-cost backend computations
  /// Exact share-graph pair feasibility evaluations (0 for methods that
  /// build no share graph). The incremental maintenance of DESIGN.md §7
  /// must cut this ≥2x for GAS/RTV versus the rebuild-per-batch reference.
  uint64_t sharegraph_pair_checks = 0;
  size_t memory_bytes = 0;  ///< dispatcher peak instrumented bytes
  int served = 0;
  int cancelled = 0;
  int expired = 0;   ///< riders whose pickup deadline passed unassigned
  int rejected = 0;  ///< riders an online dispatcher gave up on permanently
  int total_requests = 0;
  // Geo-sharding (DESIGN.md §12). Single-region runs report num_shards=1,
  // zero cross-shard trips, and a load ratio of 1 (0 when nothing was
  // assigned at all).
  int num_shards = 1;
  /// Assignments where the request's home zone (pickup) differs from the
  /// shard that committed the vehicle — trips that went through the
  /// boundary-escrow handoff.
  int cross_shard_trips = 0;
  /// max/mean of per-shard assignment counts over the run; 1 is perfectly
  /// balanced, num_shards is one shard doing all the work.
  double shard_load_max_over_mean = 0;
  /// Per-shard observability (one entry per shard, shard-id order; a single
  /// entry mirroring the global counters at num_shards == 1). Backend
  /// computations charged to each shard's cache
  /// partition this run, and the partition's hit rate over the run — exact
  /// and thread-count-invariant per shard, since a shard only ever queries
  /// its own partition.
  std::vector<uint64_t> shard_sp_queries;
  std::vector<double> shard_cache_hit_rate;
  /// max/mean of per-shard OnBatch wall seconds over the run — the
  /// time-domain imbalance (the quantity that bounds the concurrent round's
  /// speedup), as shard_load_max_over_mean is the assignment-domain one.
  /// Wall-clock derived, so excluded from bitwise parity contracts.
  double shard_round_time_max_over_mean = 0;
  // Per-rider service quality over the served riders (0 when none served):
  double pickup_wait_p50 = 0;     ///< median pickup - release wait
  double pickup_wait_p99 = 0;     ///< nearest-rank p99 pickup wait
  double mean_detour_ratio = 0;   ///< mean (dropoff - pickup) / direct_cost
  /// Committed dropoffs that missed their deadline. CommitStops enforces
  /// deadlines at commit time and arrivals are fixed thereafter, so this is
  /// 0 by construction — tests pin it as the repositioning invariant.
  int late_dropoffs = 0;
  // Repositioning (0 unless a policy is installed):
  int repositions = 0;          ///< completed empty relocation legs
  double reposition_cost = 0;   ///< their travel cost (inside travel_cost)
  // Allocation discipline (DESIGN.md §8). A *steady-state* batch is a
  // dispatch round whose pending pool is non-empty and contains no freshly
  // released request — the warmed regime where the pooled paths promise
  // zero heap allocations. Counts are heap allocations observed strictly
  // inside Dispatcher::OnBatch under the counting allocator
  // (util/alloc_gate.h); both stay 0 in binaries that don't link
  // util/counting_new.cc.
  uint64_t allocs_per_batch_p50 = 0;  ///< nearest-rank median over steady batches
  uint64_t allocs_per_batch_max = 0;  ///< worst steady batch
  /// Peak bytes retained across every EpochArena in the process (chunks
  /// stay warm over Reset); process-wide high-water mark, not per-run.
  size_t arena_peak_bytes = 0;
  // Streaming service mode (DESIGN.md §13); all zero in replay mode so
  // existing compare_bench baselines stay parseable. Wall-clock derived, so
  // none of these participate in any bitwise parity contract.
  /// Ingest→decision latency quantiles in milliseconds: from the ingestion
  /// thread's push to the end of the first dispatch round that presented
  /// the request, over every request that reached a round.
  double dispatch_latency_p50_ms = 0;
  double dispatch_latency_p99_ms = 0;
  double dispatch_latency_p999_ms = 0;
  /// Filled by sustained-qps benches (bench/svc_sustained_qps.cc): one run
  /// probes a single rate, so the engine always reports 0 here.
  double max_sustained_qps = 0;
  /// Arrivals rejected because the ingestion ring was full — the admission-
  /// control overflow. Shed requests never release; they count as unserved
  /// (penalty applies), like riders the platform turned away at the door.
  uint64_t shed_requests = 0;
  /// Deepest the ingestion ring ever got (sampled at every push and at
  /// every batch-boundary drain).
  uint64_t ingest_queue_depth_max = 0;
};

class SimulationEngine {
 public:
  SimulationEngine(TravelCostEngine* engine, std::vector<Request> requests,
                   SimulationOptions options);
  ~SimulationEngine();

  /// Draws spawn positions (seeded) for \p num_vehicles vehicles with
  /// \p capacity seats each. Call once before Run.
  void SpawnFleet(int num_vehicles, int capacity);

  /// Installs a scenario; OnInstall runs at the start of every Run, in
  /// installation order. Scenarios persist across Runs on this engine.
  void AddScenario(std::unique_ptr<Scenario> scenario);
  void ClearScenarios();

  /// Installs the idle-vehicle repositioning hook (null = off, the
  /// default). The policy runs after every dispatch round.
  void SetRepositioningPolicy(std::unique_ptr<RepositioningPolicy> policy);

  /// Replays the whole stream under the named dispatcher on the
  /// event-driven core, honouring installed scenarios and the
  /// repositioning policy.
  RunMetrics Run(const std::string& algorithm, const DispatchConfig& config);

 private:
  class EventRun;  // the per-run event-core state machine (engine.cc)

  std::vector<Vehicle> BuildFleet();
  /// Per-request cancellation delay after release (+inf = never cancels);
  /// consumes run_rng_ in stored request order.
  std::vector<double> DrawCancelOffsets();
  /// (Re)builds the per-shard travel-cost cache partitions
  /// (TravelCostEngine::MakeCachePartition, 16 lock stripes each) to match
  /// the shard count and DispatchConfig::shard_cache_capacity. Partitions
  /// persist across Runs on this engine — like the root cache, they stay
  /// warm — and are only rebuilt when the shape changes.
  void EnsureCachePartitions(int num_shards, const DispatchConfig& config);

  TravelCostEngine* engine_;
  std::vector<Request> requests_;  ///< sorted by release time
  SimulationOptions options_;
  std::vector<NodeId> spawn_nodes_;
  int spawn_capacity_ = 0;
  Rng run_rng_;  ///< fault-model draws; advances across runs (see header)
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::unique_ptr<RepositioningPolicy> repositioning_;
  /// One travel-cost cache partition per shard under geo-sharding (empty
  /// until a multi-shard Run). Children of engine_, so they must not
  /// outlive it — callers construct the root engine before the simulation
  /// engine, and destruction order follows.
  std::vector<std::unique_ptr<TravelCostEngine>> cache_partitions_;
  size_t partition_capacity_ = 0;
};

}  // namespace structride
