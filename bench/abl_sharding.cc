// Geo-sharding ablation (DESIGN.md §12): SARD on the event core at 1, 2 and
// 4 shards over the CHD preset, plus a 4-shard NYC wall-clock cell. Two
// hard gates, both fatal (nonzero exit):
//
//   serial==conc     every cell runs twice, with concurrent_shards off
//                    (the serial shard-id-order reference) and on (the
//                    pool-task batch phase); the two must agree bitwise on
//                    every parity metric, per-shard sp_queries included.
//   census           at every shard count every request must reach exactly
//                    one terminal outcome: served + cancelled + expired +
//                    rejected + late == total, with no cross-shard trip in
//                    a single-region run. (The engine additionally
//                    SR_CHECKs vehicle/request conservation every round,
//                    so a violation aborts the binary — also nonzero.)
//
// Every run gets its own cold travel-cost engine, so each row's #SP queries
// are independent of the rows before it.
//
// The sweep reports the sharding observables per cell: per-shard load
// balance (max/mean of per-shard assignment counts), the cross-shard trip
// fraction, and the batch-time imbalance ratio, all landing in the BENCH
// json via RecordJsonRow. The NYC section records both the serial and the
// concurrent wall-clock ("NYC shards=4 serial t8" / "NYC shards=4 t8") so
// CI's compare_bench.py cell can gate the concurrent speedup; the
// STRUCTRIDE_CONC_SHARDS env knob flips the recorded non-"serial" rows to
// serial execution for the two-directory comparison.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"

using namespace structride;
using namespace structride::bench;

namespace {

// Bitwise agreement on every parity metric (wall-clock and allocation
// sampling are the only fields legitimately mode-dependent).
bool SameOutcome(const RunMetrics& a, const RunMetrics& b) {
  return a.served == b.served && a.cancelled == b.cancelled &&
         a.expired == b.expired && a.rejected == b.rejected &&
         a.total_requests == b.total_requests &&
         a.unified_cost == b.unified_cost && a.travel_cost == b.travel_cost &&
         a.penalty_cost == b.penalty_cost &&
         a.service_rate == b.service_rate && a.sp_queries == b.sp_queries &&
         a.sharegraph_pair_checks == b.sharegraph_pair_checks &&
         a.memory_bytes == b.memory_bytes &&
         a.pickup_wait_p50 == b.pickup_wait_p50 &&
         a.pickup_wait_p99 == b.pickup_wait_p99 &&
         a.mean_detour_ratio == b.mean_detour_ratio &&
         a.late_dropoffs == b.late_dropoffs &&
         a.num_shards == b.num_shards &&
         a.cross_shard_trips == b.cross_shard_trips &&
         a.shard_load_max_over_mean == b.shard_load_max_over_mean &&
         a.shard_sp_queries == b.shard_sp_queries &&
         a.shard_cache_hit_rate == b.shard_cache_hit_rate;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  int failures = 0;

  std::printf("\n================================================================\n");
  std::printf("Geo-sharding ablation: SARD on CHD at 1/2/4 shards\n");
  std::printf("================================================================\n");
  std::printf("%-8s%8s%10s%16s%10s%12s%12s%12s%10s\n", "shards", "served",
              "service", "unified cost", "x-shard", "x-fraction", "load m/m",
              "time m/m", "time (s)");

  BenchContext chd("CHD", scale);
  const DatasetSpec& spec = chd.spec();
  const std::vector<Request>& requests =
      chd.Requests(spec.policy.gamma, spec.workload.num_requests);

  DispatchConfig config;
  config.vehicle_capacity = spec.capacity;
  config.grouping.max_group_size = spec.capacity;
  config.sharegraph.vehicle_capacity = spec.capacity;
  config.num_threads = 8;

  auto run_cell = [&](int num_shards, bool concurrent) {
    std::unique_ptr<TravelCostEngine> engine = chd.MakeEngine();
    SimulationOptions sopts;
    sopts.batch_period = 5;
    sopts.seed = 4242;
    sopts.dataset = "CHD";
    SimulationEngine sim(engine.get(), requests, sopts);
    sim.SpawnFleet(spec.num_vehicles, spec.capacity);
    DispatchConfig cell_config = config;
    cell_config.num_shards = num_shards;
    cell_config.concurrent_shards = concurrent;
    return sim.Run("SARD", cell_config);
  };

  const bool conc_mode = BenchConcurrentShards();
  for (int shards : {1, 2, 4}) {
    const RunMetrics serial = run_cell(shards, false);
    // The recorded cell honours STRUCTRIDE_CONC_SHARDS so two bench
    // invocations (env 0 vs default) record serial vs concurrent rows under
    // the same point names for compare_bench.py.
    const RunMetrics m = conc_mode ? run_cell(shards, true) : serial;
    double frac = m.served > 0 ? static_cast<double>(m.cross_shard_trips) /
                                     static_cast<double>(m.served)
                               : 0;
    RecordJsonRow("SARD", "shards=" + std::to_string(shards), m);
    RecordJsonValue("SARD", "shards=" + std::to_string(shards),
                    "cross_shard_fraction", frac);
    std::printf("%-8d%8d%10.3f%16.0f%10d%12.4f%12.3f%12.3f%10.2f\n", shards,
                m.served, m.service_rate, m.unified_cost, m.cross_shard_trips,
                frac, m.shard_load_max_over_mean,
                m.shard_round_time_max_over_mean, m.running_time);

    if (conc_mode && !SameOutcome(serial, m)) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: concurrent_shards diverged from the serial shard "
                   "loop at %d shards\n",
                   shards);
    }
    long closed = static_cast<long>(m.served) +
                  static_cast<long>(m.cancelled) +
                  static_cast<long>(m.expired) +
                  static_cast<long>(m.rejected) +
                  static_cast<long>(m.late_dropoffs);
    if (closed != m.total_requests || m.num_shards != shards ||
        (shards == 1 && m.cross_shard_trips != 0)) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: %d-shard census %ld != %d total requests (or "
                   "cross-shard trips in a single-region run)\n",
                   shards, closed, m.total_requests);
    }
  }

  // ---- NYC wall-clock cell: 4 shards, 8 threads, serial vs concurrent ----
  // sard_parallel_acceptance stays off so shard-level concurrency is the
  // only difference between the two runs; the speedup is then sum(t_i) /
  // max-chain, bounded by the batch-time imbalance ratio reported above.
  std::printf("\nNYC preset, 4 shards, 8 threads: serial vs concurrent "
              "batch phase\n");
  {
    BenchContext nyc_context("NYC", scale);
    const DatasetSpec& nyc = nyc_context.spec();
    const std::vector<Request>& nyc_requests =
        nyc_context.Requests(nyc.policy.gamma, nyc.workload.num_requests);
    DispatchConfig nyc_config;
    nyc_config.vehicle_capacity = nyc.capacity;
    nyc_config.grouping.max_group_size = nyc.capacity;
    nyc_config.sharegraph.vehicle_capacity = nyc.capacity;
    nyc_config.num_threads = 8;
    nyc_config.num_shards = 4;
    auto run_nyc = [&](bool concurrent) {
      std::unique_ptr<TravelCostEngine> engine = nyc_context.MakeEngine();
      SimulationOptions sopts;
      sopts.batch_period = 5;
      sopts.seed = 4242;
      sopts.dataset = "NYC";
      SimulationEngine sim(engine.get(), nyc_requests, sopts);
      sim.SpawnFleet(nyc.num_vehicles, nyc.capacity);
      DispatchConfig cell_config = nyc_config;
      cell_config.concurrent_shards = concurrent;
      return sim.Run("SARD", cell_config);
    };
    const RunMetrics serial = run_nyc(false);
    const RunMetrics conc = conc_mode ? run_nyc(true) : run_nyc(false);
    if (!SameOutcome(serial, conc)) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL: concurrent_shards diverged from the serial shard "
                   "loop on NYC/4 shards\n");
    }
    const double speedup =
        conc.running_time > 0 ? serial.running_time / conc.running_time : 0;
    RecordJsonRow("SARD", "NYC shards=4 serial t8", serial);
    RecordJsonRow("SARD", "NYC shards=4 t8", conc);
    RecordJsonValue("SARD", "NYC shards=4 t8", "concurrent_speedup", speedup);
    std::printf("%-22s%12s%12s%10s\n", "mode", "time (s)", "time m/m",
                "speedup");
    std::printf("%-22s%12.2f%12.3f%10s\n", "serial", serial.running_time,
                serial.shard_round_time_max_over_mean, "-");
    std::printf("%-22s%12.2f%12.3f%10.2f\n",
                conc_mode ? "concurrent" : "serial (env off)",
                conc.running_time, conc.shard_round_time_max_over_mean,
                speedup);
  }

  std::printf(
      "\nAt shards=1 the partition degenerates to one zone and the\n"
      "coordinator runs the single-region round. At 2/4 shards each zone\n"
      "dispatches its own requests over its resident fleet (against its own travel-cost\n"
      "cache partition); boundary requests re-home through the escrow (the\n"
      "x-shard column counts trips assigned by a foreign shard), the census\n"
      "must balance exactly, and the concurrent batch phase must agree\n"
      "bitwise with the serial shard-id-order reference.\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d sharding gate(s) violated\n", failures);
    return 1;
  }
  return 0;
}
