// The simulation engine: replays a request stream against a fleet and one
// dispatcher, producing the unified metrics the paper plots (unified cost,
// service rate, running time, #SP queries, instrumented memory) plus the
// fault-model counters and per-rider service-quality stats, as RunMetrics
// (sim/run_metrics.h).
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
#include "sim/run_metrics.h"
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
