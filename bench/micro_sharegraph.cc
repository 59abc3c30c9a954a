// Microbenchmarks for the shareability graph: batch folding (the Alg. 1
// cost, free pair screens included), shareability loss evaluation and
// supernode substitution.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "sharegraph/builder.h"
#include "sharegraph/loss.h"
#include "roadnet/generator.h"
#include "sim/workload.h"

namespace structride {
namespace {

struct Fixture {
  RoadNetwork net;
  TravelCostEngine engine;
  std::vector<Request> requests;

  Fixture()
      : net([] {
          CityOptions opt;
          opt.rows = 30;
          opt.cols = 30;
          opt.seed = 31;
          return GenerateGridCity(opt);
        }()),
        engine(net) {
    DeadlinePolicy policy;
    policy.gamma = 1.5;
    WorkloadOptions wopts;
    wopts.num_requests = 300;
    wopts.duration = 90;
    wopts.seed = 6;
    requests = GenerateWorkload(net, &engine, policy, wopts);
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

void BM_BuildShareGraph(benchmark::State& state) {
  Fixture& f = F();
  for (auto _ : state) {
    ShareGraphBuilder builder(&f.engine, {});
    builder.AddRequests(f.requests);
    benchmark::DoNotOptimize(builder.graph().NumEdges());
  }
}
BENCHMARK(BM_BuildShareGraph)->Unit(benchmark::kMillisecond)->Iterations(10);

void BM_IncrementalAddRequests(benchmark::State& state) {
  // The per-batch incremental cost: fold 20 new requests into a populated
  // graph. Reports the batch's exact pair checks and the pairs the free
  // screens pruned.
  Fixture& f = F();
  uint64_t checks = 0, pruned = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ShareGraphBuilder builder(&f.engine, {});
    std::vector<Request> base(f.requests.begin(), f.requests.end() - 20);
    std::vector<Request> batch(f.requests.end() - 20, f.requests.end());
    builder.AddRequests(base);
    const uint64_t checks_before = builder.pair_checks();
    const uint64_t pruned_before = builder.pruned_pairs();
    state.ResumeTiming();
    builder.AddRequests(batch);
    benchmark::DoNotOptimize(builder.graph().NumEdges());
    checks += builder.pair_checks() - checks_before;
    pruned += builder.pruned_pairs() - pruned_before;
  }
  const double ops = static_cast<double>(state.iterations());
  state.counters["pair_checks_per_op"] = static_cast<double>(checks) / ops;
  state.counters["pruned_per_op"] = static_cast<double>(pruned) / ops;
}
BENCHMARK(BM_IncrementalAddRequests)->Unit(benchmark::kMillisecond)->Iterations(10);

void BM_ShareabilityLoss(benchmark::State& state) {
  static ShareGraphBuilder* builder = [] {
    auto* b = new ShareGraphBuilder(&F().engine, {});
    b->AddRequests(F().requests);
    return b;
  }();
  const ShareGraph& sg = builder->graph();
  // Collect groups of the requested size (edges / triangles).
  std::vector<std::vector<RequestId>> groups;
  int k = static_cast<int>(state.range(0));
  for (RequestId a : sg.Nodes()) {
    for (RequestId b : sg.Neighbors(a)) {
      if (b <= a) continue;
      if (k == 2) {
        groups.push_back({a, b});
      } else {
        for (RequestId c : sg.Neighbors(b)) {
          if (c <= b || !sg.HasEdge(a, c)) continue;
          groups.push_back({a, b, c});
        }
      }
      if (groups.size() > 500) break;
    }
    if (groups.size() > 500) break;
  }
  if (groups.empty()) {
    state.SkipWithError("no groups found");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShareabilityLoss(sg, groups[i++ % groups.size()]));
  }
  state.SetLabel("|G|=" + std::to_string(k));
}
BENCHMARK(BM_ShareabilityLoss)->Arg(2)->Arg(3);

void BM_SupernodeSubstitution(benchmark::State& state) {
  Fixture& f = F();
  for (auto _ : state) {
    state.PauseTiming();
    ShareGraphBuilder builder(&f.engine, {});
    builder.AddRequests(f.requests);
    ShareGraph sg = builder.graph();
    // First edge found.
    std::vector<RequestId> group;
    for (RequestId a : sg.Nodes()) {
      if (!sg.Neighbors(a).empty()) {
        group = {a, sg.Neighbors(a)[0]};
        break;
      }
    }
    state.ResumeTiming();
    if (!group.empty()) sg.SubstituteSupernode(group, 1 << 20);
    benchmark::DoNotOptimize(sg.NumEdges());
  }
}
BENCHMARK(BM_SupernodeSubstitution)->Unit(benchmark::kMillisecond)->Iterations(10);

}  // namespace
}  // namespace structride
