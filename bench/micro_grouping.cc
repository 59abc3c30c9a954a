// Microbenchmarks for the Algorithm-2 grouping enumerator: cost versus pool
// size and capacity, under both insertion-order policies (the paper's
// one-schedule-per-node additive tree vs the GAS-quality variant).

#include <benchmark/benchmark.h>

#include "group/grouping.h"
#include "roadnet/generator.h"
#include "sharegraph/builder.h"
#include "sim/workload.h"

namespace structride {
namespace {

struct Fixture {
  RoadNetwork net;
  TravelCostEngine engine;
  std::vector<Request> requests;
  std::unique_ptr<ShareGraphBuilder> builder;

  Fixture()
      : net([] {
          CityOptions opt;
          opt.rows = 30;
          opt.cols = 30;
          opt.seed = 41;
          return GenerateGridCity(opt);
        }()),
        engine(net) {
    DeadlinePolicy policy;
    policy.gamma = 2.0;
    WorkloadOptions wopts;
    wopts.num_requests = 120;
    wopts.duration = 30;
    wopts.seed = 8;
    requests = GenerateWorkload(net, &engine, policy, wopts);
    ShareGraphBuilderOptions bopts;
    bopts.vehicle_capacity = 6;
    builder = std::make_unique<ShareGraphBuilder>(&engine, bopts);
    builder->AddBatch(requests);
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

void BM_EnumerateGroups(benchmark::State& state) {
  Fixture& f = F();
  size_t pool_size = static_cast<size_t>(state.range(0));
  int capacity = static_cast<int>(state.range(1));
  bool best_of_all = state.range(2) != 0;
  std::vector<Request> pool(f.requests.begin(),
                            f.requests.begin() +
                                std::min(pool_size, f.requests.size()));
  RouteState rs;
  rs.start = pool[0].source;
  rs.start_time = 0;
  rs.capacity = capacity;
  GroupingOptions opts;
  opts.max_group_size = capacity;
  opts.insertion_order = best_of_all ? InsertionOrderPolicy::kBestOfAllParents
                                     : InsertionOrderPolicy::kByShareability;
  size_t produced = 0;
  for (auto _ : state) {
    GroupingResult res = EnumerateGroups(rs, Schedule(), pool, &f.builder->graph(),
                                         &f.engine, opts);
    produced = res.groups.size();
    benchmark::DoNotOptimize(res);
  }
  state.SetLabel("pool=" + std::to_string(pool.size()) + " c=" +
                 std::to_string(capacity) + " groups=" + std::to_string(produced) +
                 (best_of_all ? " best-of-all" : " by-shareability"));
}
BENCHMARK(BM_EnumerateGroups)
    ->Args({10, 3, 0})
    ->Args({30, 3, 0})
    ->Args({60, 3, 0})
    ->Args({30, 4, 0})
    ->Args({30, 3, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

}  // namespace
}  // namespace structride
