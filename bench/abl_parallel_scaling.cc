// Scaling ablation: SARD over geo-shards x worker threads. Threads run only
// a multi-shard round's shard batches (DESIGN.md §12); the dispatchers
// themselves run on one thread, because their pooled stages never paid on
// a benchmark workload (DESIGN.md §4, deviation 9). Every cell with more
// than one thread must equal the one-thread cell of its shard count on
// every outcome and work field of the metrics table (sim/run_metrics.h);
// outcomes legitimately differ across shard counts (zonal dispatch is a
// different policy), so speedup is reported against the 1-shard cell but
// parity is gated only within a shard count. A one-thread 1-shard cell on
// a 4x fleet rides along (its speedup column reads 0).
//
// The bench is also the real-run allocation gate: it links the counting
// allocator, and steady-state batches must allocate nothing in any cell
// (DESIGN.md §8), on both fleet sizes. It exits nonzero on a divergence or
// an allocating cell. Every cell runs on its own cold travel-cost engine
// (cold shard cache partitions too), so #SP queries compare backend work,
// not cache state.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/workload.h"
#include "util/alloc_gate.h"

using namespace structride;
using namespace structride::bench;

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Scaling ablation: SARD shards x threads, and a 4x fleet\n");
  std::printf("================================================================\n");
  std::printf("%-8s%-8s%-8s%-10s%10s%16s%12s%10s%12s\n", "city", "fleet",
              "shards", "threads", "service", "unified cost", "time (s)",
              "speedup", "allocs p50");
  if (HeapAllocCountingActive()) {
    std::printf("(counting allocator active: steady-state rounds must "
                "allocate nothing)\n");
  }

  int divergences = 0;
  int alloc_gate_failures = 0;
  for (const std::string& ds : {std::string("CHD"), std::string("NYC")}) {
    BenchContext context(ds, scale);
    const DatasetSpec& spec = context.spec();
    // Triple the arrival rate so batches are busy enough for the shard
    // batches to have work to split.
    const std::vector<Request>& reqs =
        context.Requests(spec.policy.gamma, 3 * spec.workload.num_requests);
    SimulationOptions sopts;
    sopts.batch_period = 10;
    sopts.seed = 4242;
    sopts.dataset = ds;

    double z1_time = 0;
    // One cell: a cold travel-cost engine and a fresh simulation, checked
    // against the allocation gate and, when \p base is set, against the
    // one-thread cell of its shard count.
    auto run_cell = [&](int fleet_mult, int shards, int threads,
                        const RunMetrics* base) {
      DispatchConfig config;
      config.vehicle_capacity = spec.capacity;
      config.grouping.max_group_size = spec.capacity;
      config.num_threads = threads;
      config.num_shards = shards;
      std::unique_ptr<TravelCostEngine> engine = context.MakeEngine();
      SimulationEngine sim(engine.get(), reqs, sopts);
      sim.SpawnFleet(spec.num_vehicles * fleet_mult, spec.capacity);
      const RunMetrics r = sim.Run("SARD", config);
      RecordJsonRow("SARD",
                    ds + (fleet_mult > 1 ? " x" + std::to_string(fleet_mult)
                                         : std::string()) +
                        " z" + std::to_string(shards) + " t" +
                        std::to_string(threads),
                    r);
      const std::string diff =
          base != nullptr ? ParityDiff(*base, r, ParityScope::kOutcomeAndWork)
                          : std::string();
      if (!diff.empty()) {
        ++divergences;
        std::fprintf(stderr, "DIVERGED: %s z%d t%d: %s\n", ds.c_str(),
                     shards, threads, diff.c_str());
      }
      const bool allocs_ok =
          !HeapAllocCountingActive() || r.allocs_per_batch_p50 == 0;
      if (!allocs_ok) ++alloc_gate_failures;
      if (fleet_mult == 1 && shards == 1) z1_time = r.running_time;
      std::printf("%-8sx%-7d%-8d%-10d%10.3f%16.0f%12.2f%10.2f%12llu%s%s\n",
                  ds.c_str(), fleet_mult, shards, threads, r.service_rate,
                  r.unified_cost, r.running_time,
                  fleet_mult == 1 && r.running_time > 0
                      ? z1_time / r.running_time
                      : 0.0,
                  static_cast<unsigned long long>(r.allocs_per_batch_p50),
                  diff.empty() ? "" : "  << DIVERGED across thread counts",
                  allocs_ok ? "" : "  << STEADY BATCHES ALLOCATED");
      return r;
    };

    run_cell(1, 1, 1, nullptr);
    for (int shards : {2, 4}) {
      const RunMetrics base = run_cell(1, shards, 1, nullptr);
      run_cell(1, shards, 8, &base);
    }
    run_cell(4, 1, 1, nullptr);
  }

  std::printf("\nAt 2 and 4 shards, 8 threads must be bitwise identical to\n"
              "one thread: the pool runs each round's shard batches\n"
              "concurrently and the engine merges their outputs in shard\n"
              "order, so threads change wall-clock only, and scale with the\n"
              "cores the host actually has. Every cell, the 4x fleet's\n"
              "included, must keep steady-state batches allocation-free.\n");
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
