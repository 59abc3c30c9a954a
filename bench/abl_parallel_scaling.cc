// Ablation for the paper's scalability note ("multi-threading can speed up
// the Shareability Graph building and acceptance stage as each vehicle
// decides independently"): SARD swept over worker-thread counts × fleet
// sizes, against the one-thread cell of the same fleet. Result quality
// (service rate, unified cost, served, #SP queries) must be identical in
// every cell: the parallelism prices proposals only, and commits stay
// serial and deterministic. The bench exits nonzero if any cell's outcome
// diverges from its fleet's one-thread cell, so the nightly smoke run
// doubles as a determinism check. Every cell runs on its own cold
// travel-cost engine, so #SP queries compare backend work, not cache state.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "util/alloc_gate.h"

using namespace structride;
using namespace structride::bench;

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Scalability ablation: SARD threads x fleet sweep vs one thread\n");
  std::printf("================================================================\n");
  std::printf("%-8s%-8s%-10s%10s%16s%12s%10s%12s\n", "city", "fleet",
              "threads", "service", "unified cost", "time (s)", "speedup",
              "allocs p50");
  if (HeapAllocCountingActive()) {
    std::printf("(counting allocator active: steady-state rounds must "
                "allocate nothing)\n");
  }

  int divergences = 0;
  int alloc_gate_failures = 0;
  for (const std::string& ds : {std::string("CHD"), std::string("NYC")}) {
    BenchContext context(ds, scale);
    const DatasetSpec& spec = context.spec();
    // Triple the arrival rate: graph building and proposal pricing are what
    // parallelize, so batches must be busy enough for the sweep to mean
    // something.
    const std::vector<Request>& reqs =
        context.Requests(spec.policy.gamma, 3 * spec.workload.num_requests);
    SimulationOptions sopts;
    sopts.batch_period = 10;
    sopts.seed = 4242;
    sopts.dataset = ds;

    // One cell: a cold travel-cost engine and a fresh simulation.
    auto run_cell = [&](int vehicles, const DispatchConfig& config) {
      std::unique_ptr<TravelCostEngine> engine = context.MakeEngine();
      SimulationEngine sim(engine.get(), reqs, sopts);
      sim.SpawnFleet(vehicles, spec.capacity);
      return sim.Run("SARD", config);
    };

    for (int fleet_mult : {1, 4}) {
      auto config_for = [&](int threads) {
        DispatchConfig c;
        c.vehicle_capacity = spec.capacity;
        c.grouping.max_group_size = spec.capacity;
        c.sard_parallel_acceptance = threads > 1;
        c.num_threads = threads;
        return c;
      };

      RunMetrics base;
      for (int threads : {1, 2, 4, 8}) {
        RunMetrics r =
            run_cell(spec.num_vehicles * fleet_mult, config_for(threads));
        if (threads == 1) base = r;
        RecordJsonRow("SARD", ds + " x" + std::to_string(fleet_mult) + " t" +
                                  std::to_string(threads),
                      r);
        bool same = r.served == base.served &&
                    r.unified_cost == base.unified_cost &&
                    r.sp_queries == base.sp_queries;
        if (!same) ++divergences;
        // The allocation gate (DESIGN.md §8): with the counting allocator
        // linked in, the dispatch path must keep its zero-heap promise on
        // steady-state rounds in every cell.
        bool allocs_ok =
            !HeapAllocCountingActive() || r.allocs_per_batch_p50 == 0;
        if (!allocs_ok) ++alloc_gate_failures;
        std::printf("%-8sx%-7d%-10d%10.3f%16.0f%12.2f%10.2f%12llu%s%s\n",
                    ds.c_str(), fleet_mult, threads, r.service_rate,
                    r.unified_cost, r.running_time,
                    r.running_time > 0 ? base.running_time / r.running_time
                                       : 0.0,
                    static_cast<unsigned long long>(r.allocs_per_batch_p50),
                    same ? "" : "  << DIVERGED from one thread",
                    allocs_ok ? "" : "  << STEADY BATCHES ALLOCATED");
      }
    }

    // ---- Shards dimension (DESIGN.md §12) ----
    // The second parallel axis: geo-shards × worker threads with the
    // acceptance stage kept serial (sard_parallel_acceptance=false), so
    // concurrent shard batches are the *only* thing threads buy. Each shard
    // count gets its own engine (its own cache partitions, warmed before
    // measuring); the gate is thread-invariance — the 8-thread cell must be
    // bitwise identical to the 1-thread cell of the same shard count, which
    // pins the concurrent batch phase against the serial shard-id-order
    // reference. Outcomes legitimately differ *across* shard counts (zonal
    // dispatch is a different policy), so speedup is reported against the
    // 1-shard 1-thread cell but parity is gated only within a shard count.
    // Every cell runs on a cold engine (cold shard cache partitions too).
    std::printf("%-8s%-8s%-10s%10s%16s%12s%10s%12s\n", "city", "shards",
                "threads", "service", "unified cost", "time (s)", "speedup",
                "allocs p50");
    double z1t1_time = 0;
    for (int shards : {1, 2, 4}) {
      auto zconfig = [&](int threads) {
        DispatchConfig c;
        c.vehicle_capacity = spec.capacity;
        c.grouping.max_group_size = spec.capacity;
        c.sard_parallel_acceptance = false;
        c.num_threads = threads;
        c.num_shards = shards;
        c.concurrent_shards = BenchConcurrentShards();
        return c;
      };
      RunMetrics zbase;
      for (int threads : {1, 8}) {
        RunMetrics r = run_cell(spec.num_vehicles, zconfig(threads));
        RecordJsonRow("SARD", ds + " z" + std::to_string(shards) + " t" +
                                  std::to_string(threads),
                      r);
        bool same = true;
        if (threads == 1) {
          zbase = r;
          if (shards == 1) z1t1_time = r.running_time;
        } else {
          same = r.served == zbase.served &&
                 r.unified_cost == zbase.unified_cost &&
                 r.sp_queries == zbase.sp_queries &&
                 r.cross_shard_trips == zbase.cross_shard_trips &&
                 r.shard_sp_queries == zbase.shard_sp_queries;
          if (!same) ++divergences;
        }
        bool allocs_ok =
            !HeapAllocCountingActive() || r.allocs_per_batch_p50 == 0;
        if (!allocs_ok) ++alloc_gate_failures;
        std::printf("%-8sz%-7d%-10d%10.3f%16.0f%12.2f%10.2f%12llu%s%s\n",
                    ds.c_str(), shards, threads, r.service_rate,
                    r.unified_cost, r.running_time,
                    r.running_time > 0 ? z1t1_time / r.running_time : 0.0,
                    static_cast<unsigned long long>(r.allocs_per_batch_p50),
                    same ? "" : "  << DIVERGED across thread counts",
                    allocs_ok ? "" : "  << STEADY BATCHES ALLOCATED");
      }
    }
  }

  std::printf("\nEvery cell must match its fleet's one-thread cell on served,\n"
              "unified cost and #SP queries: pricing is a pure read of\n"
              "batch-start fleet state and commits are serial in group order.\n"
              "Higher thread counts add pooled parallel graph building and\n"
              "proposal pricing, and scale with the cores the host actually\n"
              "has (on a single-core container they only measure pool\n"
              "overhead). The shards block sweeps the second parallel\n"
              "axis: with acceptance serial, 8 threads must be bitwise\n"
              "identical to 1 thread at every shard count — concurrent shard\n"
              "batches change wall-clock only.\n");
  if (divergences > 0) {
    std::fprintf(stderr, "FAIL: %d cells diverged from the one-thread cell\n",
                 divergences);
    return 1;
  }
  if (alloc_gate_failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %d cells heap-allocated on steady-state batches\n",
                 alloc_gate_failures);
    return 1;
  }
  return 0;
}
