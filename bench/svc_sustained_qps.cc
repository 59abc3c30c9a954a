// Sustained-qps service bench (DESIGN.md §13): for each dataset × shard
// count × dispatcher cell, binary-search the maximum wall-clock arrival
// rate the streaming service mode sustains — p99 ingest→decision latency
// under the SLO (STRUCTRIDE_SLO_P99_MS, default 250 ms) with zero shed
// arrivals. The virtual-time pacer maps the stream's demand density onto
// the target rate, so demand per round is qps-invariant and only the wall
// budget per round shrinks as qps grows; sustainability is therefore
// monotone in qps and the bisection is valid.
//
// Knobs: STRUCTRIDE_SVC_DATASETS (default CHD,NYC,Cainiao),
// STRUCTRIDE_SVC_SHARDS (default 1,4), STRUCTRIDE_ALGOS (default
// SARD,GAS,RTV here — the roster the acceptance gate names),
// STRUCTRIDE_SCALE / STRUCTRIDE_THREADS / STRUCTRIDE_SLO_P99_MS as
// everywhere. STRUCTRIDE_SVC_REQUIRE_SUSTAINED=1 makes the binary exit
// nonzero when any cell fails to sustain even the search floor — the CI
// service gate. A grid with no cell (no valid token in one of the lists)
// exits 2 before any run.
//
// Wall-time note: one probe's arrival phase lasts ~n/qps wall seconds, so
// the floor probe dominates a cell's cost; keep smoke runs at small
// STRUCTRIDE_SCALE.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/engine.h"
#include "sim/workload.h"

using namespace structride;
using namespace structride::bench;

namespace {

// The search lattice: qps values are powers of two times the floor, so
// probe results are reusable across the doubling and bisection phases.
constexpr double kQpsFloor = 125;
constexpr double kQpsCap = 16000;
constexpr int kBisectSteps = 4;

std::vector<std::string> SplitCsv(const char* env, const char* fallback) {
  std::vector<std::string> out;
  std::stringstream ss(env != nullptr ? env : fallback);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

struct Probe {
  double qps = 0;
  bool sustainable = false;
  RunMetrics metrics;
};

}  // namespace

int main() {
  const double scale = BenchScale();
  const double slo_ms = BenchSloP99Ms();
  const std::vector<std::string> datasets =
      SplitCsv(std::getenv("STRUCTRIDE_SVC_DATASETS"), "CHD,NYC,Cainiao");
  const std::vector<std::string> algos =
      SplitCsv(std::getenv("STRUCTRIDE_ALGOS"), "SARD,GAS,RTV");
  const std::vector<int> shard_counts =
      EnvPositiveIntList("STRUCTRIDE_SVC_SHARDS", "1,4");
  const char* require_env = std::getenv("STRUCTRIDE_SVC_REQUIRE_SUSTAINED");
  const bool require_sustained =
      require_env != nullptr && std::strcmp(require_env, "1") == 0;
  // A grid with no cell would print an empty table and pass the CI gate
  // vacuously; a mistyped list is an error, not a result.
  if (datasets.empty() || algos.empty() || shard_counts.empty()) {
    std::fprintf(stderr,
                 "[bench] svc_sustained_qps: empty grid (%zu datasets x %zu "
                 "shard counts x %zu algorithms); check "
                 "STRUCTRIDE_SVC_DATASETS, STRUCTRIDE_SVC_SHARDS and "
                 "STRUCTRIDE_ALGOS\n",
                 datasets.size(), shard_counts.size(), algos.size());
    return 2;
  }

  std::printf("\n================================================================\n");
  std::printf("Service mode: max sustained qps (SLO: p99 <= %.0f ms, 0 shed)\n",
              slo_ms);
  std::printf("================================================================\n");
  std::printf("%-10s%-8s%-8s%14s%12s%12s%10s%12s\n", "city", "shards",
              "algo", "max qps", "p50 (ms)", "p99 (ms)", "shed",
              "depth max");

  int unsustained_cells = 0;
  for (const std::string& ds : datasets) {
    DatasetSpec spec = DatasetByName(ds, scale);
    RoadNetwork net = BuildNetwork(&spec);
    TravelCostOptions topts;
    topts.backend = BenchSpBackend();
    TravelCostEngine engine(net, topts);
    const std::vector<Request> reqs =
        GenerateWorkload(net, &engine, spec.policy, spec.workload);

    for (int shards : shard_counts) {
      for (const std::string& algo : algos) {
        DispatchConfig config;
        config.vehicle_capacity = spec.capacity;
        config.grouping.max_group_size = spec.capacity;
        config.sharegraph.vehicle_capacity = spec.capacity;
        config.num_threads = BenchThreads();
        config.num_shards = shards;

        auto probe = [&](double qps) {
          SimulationOptions sopts;
          sopts.batch_period = 5;
          sopts.seed = 4242;
          sopts.dataset = ds;
          sopts.service_mode = true;
          sopts.service_qps = qps;
          SimulationEngine sim(&engine, reqs, sopts);
          sim.SpawnFleet(spec.num_vehicles, spec.capacity);
          Probe p;
          p.qps = qps;
          p.metrics = sim.Run(algo, config);
          p.sustainable = p.metrics.dispatch_latency_p99_ms <= slo_ms &&
                          p.metrics.shed_requests == 0;
          return p;
        };

        // Exponential phase from 1000: double while sustainable, halve
        // while not, clamped to [floor, cap]; then bisect the bracket.
        Probe best;  // highest sustainable probe so far
        Probe cur = probe(1000);
        double lo = 0, hi = 0;  // sustainable .. unsustainable bracket
        if (cur.sustainable) {
          best = cur;
          lo = cur.qps;
          while (hi == 0 && lo < kQpsCap) {
            cur = probe(std::min(kQpsCap, lo * 2));
            if (cur.sustainable) {
              best = cur;
              lo = cur.qps;
            } else {
              hi = cur.qps;
            }
          }
        } else {
          hi = cur.qps;
          while (lo == 0 && hi > kQpsFloor) {
            cur = probe(std::max(kQpsFloor, hi / 2));
            if (cur.sustainable) {
              best = cur;
              lo = cur.qps;
            } else {
              hi = cur.qps;
            }
          }
        }
        for (int step = 0; lo > 0 && hi > 0 && step < kBisectSteps; ++step) {
          cur = probe((lo + hi) / 2);
          if (cur.sustainable) {
            best = cur;
            lo = cur.qps;
          } else {
            hi = cur.qps;
          }
        }

        RunMetrics m = best.metrics;  // zero-valued when nothing sustained
        m.max_sustained_qps = best.qps;
        m.dataset = ds;
        m.algorithm = algo;
        const std::string point = ds + " s" + std::to_string(shards);
        RecordJsonRow(algo, point, m);
        RecordJsonValue(algo, point, "max_sustained_qps", best.qps);
        std::printf("%-10s%-8d%-8s%14.0f%12.3f%12.3f%10llu%12llu\n",
                    ds.c_str(), shards, algo.c_str(), best.qps,
                    m.dispatch_latency_p50_ms, m.dispatch_latency_p99_ms,
                    static_cast<unsigned long long>(m.shed_requests),
                    static_cast<unsigned long long>(m.ingest_queue_depth_max));
        std::fflush(stdout);
        if (best.qps <= 0) ++unsustained_cells;
      }
    }
  }

  if (unsustained_cells > 0) {
    std::printf("\n%d cell(s) sustained no probed rate (floor %.0f qps)\n",
                unsustained_cells, kQpsFloor);
    if (require_sustained) return 1;
  }
  return 0;
}
