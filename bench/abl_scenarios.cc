// Scenario-subsystem ablation (DESIGN.md §6): SARD replayed on the
// event-driven core under each scenario and the repositioning policy, per
// dataset preset, next to the no-scenario baseline row.
//
// Scenario timings are fractions of the preset's (scaled) arrival window:
//   surge      releases in [0.25D, 0.50D) compressed 3x toward 0.25D
//   downtime   half the fleet off duty during [0.30D, 0.60D)
//   online     per-request online dispatch from 0.50D onward
//   reposition greedy move-toward-demand-centroid for idle vehicles
//   combined   all four at once
// Every cell gets a freshly constructed SimulationEngine (fault-model RNG
// statefulness) over its own cold travel-cost engine, so each row's #SP
// queries are independent of the rows before it.

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"
#include "sim/scenario.h"

using namespace structride;
using namespace structride::bench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cell {
  std::string name;
  bool surge = false;
  bool downtime = false;
  bool online = false;
  bool reposition = false;
};

}  // namespace

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Scenario ablation: SARD on the event core, per scenario\n");
  std::printf("================================================================\n");
  std::printf("%-9s%-12s%8s%10s%16s%10s%8s%10s%10s\n", "city", "scenario",
              "served", "service", "unified cost", "cancelled", "repos",
              "wait p50", "time (s)");

  for (const std::string& ds :
       {std::string("CHD"), std::string("NYC"), std::string("Cainiao")}) {
    BenchContext context(ds, scale);
    const DatasetSpec& spec = context.spec();
    const std::vector<Request>& requests =
        context.Requests(spec.policy.gamma, spec.workload.num_requests);
    const double d = spec.workload.duration;

    DispatchConfig config;
    config.vehicle_capacity = spec.capacity;
    config.grouping.max_group_size = spec.capacity;
    config.sharegraph.vehicle_capacity = spec.capacity;

    auto run_cell = [&](const Cell& cell) {
      std::unique_ptr<TravelCostEngine> engine = context.MakeEngine();
      SimulationOptions sopts;
      sopts.batch_period = 5;
      sopts.seed = 4242;
      sopts.dataset = ds;
      SimulationEngine sim(engine.get(), requests, sopts);
      sim.SpawnFleet(spec.num_vehicles, spec.capacity);
      if (cell.surge) sim.AddScenario(MakeDemandSurge(0.25 * d, 0.5 * d, 3.0));
      if (cell.downtime) {
        sim.AddScenario(MakeVehicleDowntime(0.3 * d, 0.3 * d, 0.5));
      }
      if (cell.online) sim.AddScenario(MakeDispatchModeSwitch(0.5 * d, kInf));
      if (cell.reposition) {
        sim.SetRepositioningPolicy(MakeGreedyCentroidRepositioning());
      }
      return sim.Run("SARD", config);
    };

    const std::vector<Cell> cells = {
        {"baseline"},
        {"surge", true},
        {"downtime", false, true},
        {"online", false, false, true},
        {"reposition", false, false, false, true},
        {"combined", true, true, true, true},
    };
    for (const Cell& cell : cells) {
      RunMetrics m = run_cell(cell);
      std::string label = ds + " " + cell.name;
      RecordJsonRow("SARD", label, m);
      std::printf("%-9s%-12s%8d%10.3f%16.0f%10d%8d%10.1f%10.2f\n", ds.c_str(),
                  cell.name.c_str(), m.served, m.service_rate, m.unified_cost,
                  m.cancelled, m.repositions, m.pickup_wait_p50,
                  m.running_time);
    }
  }

  std::printf(
      "\nThe baseline row is plain batch dispatch with no scenario\n"
      "installed. Scenario rows are honest perturbations — surge packs the\n"
      "same demand into a tighter window, downtime removes supply mid-run,\n"
      "online dispatches each request at release, reposition spends empty\n"
      "miles to move idle supply toward open demand.\n");
  return 0;
}
