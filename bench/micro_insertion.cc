// Microbenchmarks for the linear insertion operator: cost and travel-cost
// lookups versus committed schedule length, plus the kinetic tree
// comparison (the Sec. IV-A tradeoff).

#include <benchmark/benchmark.h>

#include <limits>
#include <string>

#include "core/insertion.h"
#include "core/kinetic_tree.h"
#include "roadnet/generator.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

struct Fixture {
  RoadNetwork net;
  TravelCostEngine engine;
  DeadlinePolicy policy;
  std::vector<Request> requests;
  /// Riders for LoadedVehicle: the same city and window with deadlines at
  /// five times the direct cost, so that six of them fit one vehicle at
  /// t=0 (drawn from `requests`, the seed-7 vehicle holds only two).
  std::vector<Request> riders;

  Fixture()
      : net([] {
          CityOptions opt;
          opt.rows = 30;
          opt.cols = 30;
          opt.seed = 21;
          return GenerateGridCity(opt);
        }()),
        engine(net) {
    policy.gamma = 2.0;
    WorkloadOptions wopts;
    wopts.num_requests = 400;
    wopts.duration = 60;
    wopts.seed = 5;
    requests = GenerateWorkload(net, &engine, policy, wopts);
    DeadlinePolicy loose;
    loose.gamma = 5.0;
    wopts.num_requests = 200;
    wopts.seed = 9;
    riders = GenerateWorkload(net, &engine, loose, wopts);
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

// A vehicle at a seeded random node with exactly `k` riders committed at
// t=0. Skips the benchmark when fewer fit, and reports the committed stops.
Vehicle LoadedVehicle(benchmark::State& state, int k, uint64_t seed) {
  Fixture& f = F();
  Rng rng(seed);
  Vehicle w(0, static_cast<NodeId>(rng.UniformInt(0, f.net.num_nodes() - 1)),
            /*capacity=*/8);
  int committed = 0;
  for (const Request& r : f.riders) {
    if (committed == k) break;
    if (TryInsertAndCommit(&w, r, 0, &f.engine) <
        std::numeric_limits<double>::infinity()) {
      ++committed;
    }
  }
  if (committed < k) state.SkipWithError("fewer than k riders fit");
  state.counters["stops"] = static_cast<double>(w.schedule().stops().size());
  return w;
}

// Prices from the vehicle's committed legs, as every dispatcher does, and
// reports the operator's travel-cost lookups and SP queries per call.
void BM_BestInsertion(benchmark::State& state) {
  Fixture& f = F();
  Vehicle w = LoadedVehicle(state, static_cast<int>(state.range(0)), 7);
  const uint64_t lookups_before = f.engine.num_lookups();
  const uint64_t queries_before = f.engine.num_queries();
  size_t i = 100;
  for (auto _ : state) {
    const Request& r = f.requests[i++ % f.requests.size()];
    benchmark::DoNotOptimize(BestInsertion(
        w.route_state(0), w.schedule().stops(), w.legs(), r, &f.engine));
  }
  const double calls = static_cast<double>(state.iterations());
  state.counters["lookups_per_op"] =
      static_cast<double>(f.engine.num_lookups() - lookups_before) / calls;
  state.counters["queries_per_op"] =
      static_cast<double>(f.engine.num_queries() - queries_before) / calls;
  state.SetLabel("k=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BestInsertion)->Arg(0)->Arg(2)->Arg(4)->Arg(6);

void BM_KineticTreeInsert(benchmark::State& state) {
  Fixture& f = F();
  int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RouteState rs;
    rs.start = f.requests[0].source;
    rs.start_time = 0;
    rs.capacity = 8;
    KineticTree tree(rs);
    int inserted = 0;
    for (const Request& r : f.requests) {
      if (inserted >= k) break;
      if (tree.Insert(r, &f.engine)) ++inserted;
    }
    benchmark::DoNotOptimize(tree.NumSchedules());
  }
  state.SetLabel("k=" + std::to_string(k));
}
BENCHMARK(BM_KineticTreeInsert)->Arg(2)->Arg(3)->Arg(4);

void BM_CheckSchedule(benchmark::State& state) {
  Fixture& f = F();
  Vehicle w = LoadedVehicle(state, 5, 13);
  RouteState rs = w.route_state(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckSchedule(rs, w.schedule().stops(), &f.engine));
  }
}
BENCHMARK(BM_CheckSchedule);

}  // namespace
}  // namespace structride
