// Fixtures shared by the engine-level suites: dataset presets shrunk to
// unit-test size, the RunMetrics parity comparators, and a dispatch context
// wired the way the simulation engine wires one round.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"
#include "roadnet/hub_labeling.h"
#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/workload.h"
#include "util/thread_pool.h"

namespace structride {

// A dataset preset at unit-test size: scale 0.02 and a smaller city, which
// keeps the preset's workload shape. `bench_scale` instead keeps the
// preset's own city at scale 0.05, the bench smoke scale.
struct TinyPreset {
  explicit TinyPreset(const std::string& name, bool bench_scale = false)
      : spec(DatasetByName(name, bench_scale ? 0.05 : 0.02)) {
    if (!bench_scale) {
      const int side = name == "CHD" ? 16 : (name == "NYC" ? 18 : 14);
      spec.city.rows = side;
      spec.city.cols = side;
    }
    net = BuildNetwork(&spec);
    labels = std::make_unique<HubLabeling>(net);
    engine = ColdEngine();
    requests = GenerateWorkload(net, engine.get(), spec.policy, spec.workload);
    fleet_size =
        bench_scale ? spec.num_vehicles : std::max(3, spec.num_vehicles);
  }

  // A fresh travel-cost engine over the preset's hub labels: a cold cache,
  // no index rebuild.
  std::unique_ptr<TravelCostEngine> ColdEngine() const {
    TravelCostOptions options;
    options.prebuilt_hub_labels = labels.get();
    return std::make_unique<TravelCostEngine>(net, options);
  }

  DispatchConfig Config(int threads = 1) const {
    DispatchConfig config;
    config.vehicle_capacity = spec.capacity;
    config.grouping.max_group_size = spec.capacity;
    config.sharegraph.vehicle_capacity = spec.capacity;
    if (threads > 1) {
      config.sard_parallel_acceptance = true;
      config.num_threads = threads;
    }
    return config;
  }

  SimulationOptions Options(uint64_t seed = 4242) const {
    SimulationOptions sopts;
    sopts.batch_period = 5;
    sopts.seed = seed;
    sopts.dataset = spec.name;
    return sopts;
  }

  // A fresh simulation engine over `engine` per run: the fault-model RNG
  // advances across runs, so bitwise comparisons need identical draw
  // streams.
  std::unique_ptr<SimulationEngine> MakeEngine(const SimulationOptions& sopts) {
    auto sim = std::make_unique<SimulationEngine>(engine.get(), requests, sopts);
    sim->SpawnFleet(fleet_size, spec.capacity);
    return sim;
  }

  DatasetSpec spec;
  RoadNetwork net;
  std::unique_ptr<HubLabeling> labels;
  std::unique_ptr<TravelCostEngine> engine;
  std::vector<Request> requests;
  int fleet_size = 0;
};

// The outcome class of the metrics table (sim/run_metrics.h): what the
// incremental share graph (DESIGN.md §7) must reproduce of the
// rebuild-per-batch reference. A failure names every field that differs.
inline void ExpectOutcomeEqual(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(ParityDiff(a, b, ParityScope::kOutcome), "");
}

// Outcome plus work: what two runs of one configuration must agree on.
inline void ExpectBitwiseEqual(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(ParityDiff(a, b, ParityScope::kOutcomeAndWork), "");
}

// A DispatchContext wired the way the simulation engine wires a
// single-region round — caller-owned batch arena and SoA planes, the
// run-scoped share-graph builder, a worker pool when the config runs on
// several threads — for driving one dispatcher directly. Set ctx.pending,
// then call BeginRound before each OnBatch.
struct FullDispatchContext {
  FullDispatchContext(TravelCostEngine* engine, std::vector<Vehicle>* fleet,
                      const DispatchConfig& config)
      : sharegraph(engine, config.sharegraph) {
    ctx.engine = engine;
    ctx.fleet = fleet;
    ctx.sharegraph = &sharegraph;
    if (config.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(config.num_threads);
      ctx.pool = pool.get();
    }
    ctx.arena = &arena;
    ctx.fleet_soa = &fleet_soa;
    ctx.pending_soa = &pending_soa;
  }
  // ctx points into this object.
  FullDispatchContext(const FullDispatchContext&) = delete;
  FullDispatchContext& operator=(const FullDispatchContext&) = delete;

  // Starts a round at \p now: outputs cleared, arena rewound, SoA planes
  // refreshed over the fleet and ctx.pending.
  DispatchContext* BeginRound(double now) {
    ctx.now = now;
    ctx.assigned.clear();
    ctx.rejected.clear();
    ctx.repositions.clear();
    arena.Reset();
    fleet_soa.Refresh(ctx.fleet);
    pending_soa.Refresh(
        Span<const Request* const>(ctx.pending.data(), ctx.pending.size()));
    return &ctx;
  }

  ShareGraphBuilder sharegraph;
  std::unique_ptr<ThreadPool> pool;
  EpochArena arena;
  FleetSoA fleet_soa;
  RequestSoA pending_soa;
  DispatchContext ctx;
};

}  // namespace structride
