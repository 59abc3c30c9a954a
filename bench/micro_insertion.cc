// Microbenchmarks for the linear insertion operator: cost and travel-cost
// lookups versus committed schedule length, plus the kinetic tree
// comparison (the Sec. IV-A tradeoff).

#include <benchmark/benchmark.h>

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
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

// Build a vehicle with `k` committed requests.
Vehicle LoadedVehicle(int k, uint64_t seed) {
  Fixture& f = F();
  Rng rng(seed);
  Vehicle w(0, static_cast<NodeId>(rng.UniformInt(0, f.net.num_nodes() - 1)),
            /*capacity=*/8);
  int committed = 0;
  for (const Request& r : f.requests) {
    if (committed >= k) break;
    if (TryInsertAndCommit(&w, r, 0, &f.engine) <
        std::numeric_limits<double>::infinity()) {
      ++committed;
    }
  }
  return w;
}

// Prices from the vehicle's committed legs, as every dispatcher does, and
// reports the operator's travel-cost lookups and SP queries per call.
void BM_BestInsertion(benchmark::State& state) {
  Fixture& f = F();
  Vehicle w = LoadedVehicle(static_cast<int>(state.range(0)), 7);
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
  Vehicle w = LoadedVehicle(5, 13);
  RouteState rs = w.route_state(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckSchedule(rs, w.schedule().stops(), &f.engine));
  }
}
BENCHMARK(BM_CheckSchedule);

}  // namespace
}  // namespace structride
