// Incremental share-graph maintenance ablation (DESIGN.md §7): every
// graph-consuming dispatcher replayed per dataset preset with the
// run-maintained incremental graph ON and with the frozen
// rebuild-per-batch reference, at the bench defaults. Two jobs:
//
//  1. Parity gate — the incremental rows must reproduce the rebuild rows
//     bitwise on every outcome field of the metrics table
//     (sim/run_metrics.h): served, costs, #SP queries, service-quality
//     stats, …; the bench exits nonzero on any divergence,
//     so the nightly smoke run doubles as the maintenance-equivalence
//     check at bench scale, the discipline abl_scenarios applies to the
//     event core.
//  2. Redundancy gate — GAS and RTV rebuild their graph over the whole
//     pending pool every batch, re-running pair feasibility checks that
//     already ran; incremental maintenance must cut their exact pair
//     checks by >= 2x. (SARD reads the engine's run builder whatever
//     the flag says, so its ratio is exactly 1x: reported, not gated.)
//
// Every recorded run gets a freshly constructed SimulationEngine AND a
// fresh, cold travel-cost cache (the same discipline as the engine
// parity tests): a shared warm cache would report sp_queries == 0 on both
// sides — a vacuous gate — and, past the LRU capacity, leave the two runs
// starting from different cache states, failing the gate with no real
// divergence. The workload is generated once per dataset from a separate
// engine so every run replays the identical stream.
//
// Scale bound: the sp_queries equality leg of the gate assumes the run's
// distinct travel-cost pairs fit the engine's LRU (2^20 entries) — past
// that, the rebuild path recomputes evicted legs the incremental path
// never re-touches and the counts legitimately drift apart with no
// behavioral divergence. Fine through the default scale 0.25 with room to
// spare; at paper-size scales (~25) compare served/unified_cost only or
// raise TravelCostOptions::cache_capacity here.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"

using namespace structride;
using namespace structride::bench;

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Incremental share graph vs rebuild-per-batch, per dispatcher\n");
  std::printf("================================================================\n");
  std::printf("%-9s%-7s%-13s%8s%16s%12s%14s%8s\n", "city", "algo", "mode",
              "served", "unified cost", "sp queries", "pair checks",
              "ratio");

  int failures = 0;
  for (const std::string& ds :
       {std::string("CHD"), std::string("NYC"), std::string("Cainiao")}) {
    DatasetSpec spec = DatasetByName(ds, scale);
    RoadNetwork net = BuildNetwork(&spec);
    std::vector<Request> requests;
    {
      TravelCostEngine workload_engine(net);
      requests =
          GenerateWorkload(net, &workload_engine, spec.policy, spec.workload);
    }

    for (const std::string& algo :
         {std::string("GAS"), std::string("RTV"), std::string("SARD")}) {
      auto run_mode = [&](bool incremental) {
        TravelCostEngine engine(net);  // cold cache per recorded run
        SimulationOptions sopts;
        sopts.batch_period = 5;
        sopts.seed = 4242;
        sopts.dataset = ds;
        SimulationEngine sim(&engine, requests, sopts);
        sim.SpawnFleet(spec.num_vehicles, spec.capacity);
        DispatchConfig config;
        config.vehicle_capacity = spec.capacity;
        config.grouping.max_group_size = spec.capacity;
        config.sharegraph.vehicle_capacity = spec.capacity;
        config.incremental_sharegraph = incremental;
        return sim.Run(algo, config);
      };

      RunMetrics rebuild = run_mode(false);
      RunMetrics incremental = run_mode(true);
      RecordJsonRow(algo, ds + " rebuild", rebuild);
      RecordJsonRow(algo, ds + " incremental", incremental);
      // Vacuously 1x when neither path checked a pair (degenerate scale);
      // a rebuild count with zero incremental checks is a full elimination.
      const double ratio =
          rebuild.sharegraph_pair_checks == 0
              ? 1.0
              : (incremental.sharegraph_pair_checks == 0
                     ? static_cast<double>(rebuild.sharegraph_pair_checks)
                     : static_cast<double>(rebuild.sharegraph_pair_checks) /
                           static_cast<double>(
                               incremental.sharegraph_pair_checks));
      RecordJsonValue(algo, ds, "pair_check_reduction", ratio);

      for (const RunMetrics* m : {&rebuild, &incremental}) {
        std::printf("%-9s%-7s%-13s%8d%16.0f%12llu%14llu%8.2f\n", ds.c_str(),
                    algo.c_str(), m == &rebuild ? "rebuild" : "incremental",
                    m->served, m->unified_cost,
                    static_cast<unsigned long long>(m->sp_queries),
                    static_cast<unsigned long long>(m->sharegraph_pair_checks),
                    m == &rebuild ? 1.0 : ratio);
      }

      const std::string diff =
          ParityDiff(rebuild, incremental, ParityScope::kOutcome);
      if (!diff.empty()) {
        ++failures;
        std::fprintf(stderr,
                     "DIVERGED: %s %s incremental != rebuild-per-batch: %s\n",
                     ds.c_str(), algo.c_str(), diff.c_str());
      }
      if (algo != "SARD" && rebuild.sharegraph_pair_checks > 0 &&
          ratio < 2.0) {
        ++failures;
        std::fprintf(stderr,
                     "FAIL: %s %s pair-check reduction %.2fx < 2x\n",
                     ds.c_str(), algo.c_str(), ratio);
      }
    }
  }

  std::printf(
      "\nIncremental rows must reproduce the rebuild rows bitwise on every\n"
      "outcome field (served, costs, #SP queries, service quality): the\n"
      "maintained graph is the same graph, it just skips re-checking pairs that\n"
      "already ran in earlier batches — which is where the >= 2x pair-check\n"
      "reduction for GAS/RTV comes from. SARD reads the run-maintained\n"
      "graph either way, so its ratio is 1x by construction.\n");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d divergence/reduction gate(s) tripped\n",
                 failures);
    return 1;
  }
  return 0;
}
