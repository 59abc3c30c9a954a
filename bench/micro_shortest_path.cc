// Microbenchmarks for the shortest-path substrate, in two parts:
//
//  1. A cold/warm latency study on the CHD preset network: for each backend
//     (hub labels, contraction hierarchies, bidirectional Dijkstra) the same
//     random pair set is driven through a fresh TravelCostEngine twice — the
//     cold pass is all cache misses (backend-bound), the warm pass is all
//     cache hits (LRU-bound) — and p50/p99 per-query latency plus
//     queries/sec are reported per phase. A third HL-only pass issues the
//     pairs as one-to-many CostMany batches, whose misses share a source and
//     so keep it pinned in the hub-label query. Warm (and CostMany) queries
//     are tens of nanoseconds, below the clock resolution, so those phases
//     time fixed-size chunks and report per-query averages per chunk; cold
//     queries are timed individually. Runs before the Google-Benchmark
//     cases (own main below).
//
//  2. The Google-Benchmark cases: raw hub-label query (random pairs and
//     pairs sharing a source) vs bidirectional Dijkstra, the cached engine
//     hot path, batched CostMany, the two free lower bounds, and index
//     construction.
//
// With STRUCTRIDE_JSON_DIR set, the study writes
// $STRUCTRIDE_JSON_DIR/BENCH_micro_shortest_path_latency.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "roadnet/dijkstra.h"
#include "roadnet/generator.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/travel_cost.h"
#include "sim/datasets.h"
#include "util/random.h"

namespace structride {
namespace {

// ------------------------------------------------------------------------
// Part 1: cold/warm latency study.

struct PhaseStats {
  double p50_ns = 0;
  double p99_ns = 0;
  double qps = 0;
};

PhaseStats Summarize(std::vector<double> ns_per_query, double total_seconds,
                     size_t queries) {
  PhaseStats out;
  if (ns_per_query.empty()) return out;
  std::sort(ns_per_query.begin(), ns_per_query.end());
  out.p50_ns = ns_per_query[ns_per_query.size() / 2];
  out.p99_ns = ns_per_query[std::min(ns_per_query.size() - 1,
                                     ns_per_query.size() * 99 / 100)];
  out.qps = total_seconds > 0 ? static_cast<double>(queries) / total_seconds : 0;
  return out;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<std::pair<NodeId, NodeId>> StudyPairs(const RoadNetwork& net,
                                                  size_t count) {
  // Distinct canonical pairs, so the cold phase is all misses and the warm
  // phase all hits.
  Rng rng(7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<uint64_t> seen;
  const int64_t n = static_cast<int64_t>(net.num_nodes());
  while (pairs.size() < count) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    if (s == t) continue;
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(std::min(s, t)))
                    << 32) |
                   static_cast<uint32_t>(std::max(s, t));
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    pairs.emplace_back(s, t);
  }
  return pairs;
}

struct BackendReport {
  std::string name;
  PhaseStats cold;
  PhaseStats warm;
  PhaseStats cost_many;  // HL only; zeroed elsewhere
};

BackendReport RunStudyBackend(const RoadNetwork& net,
                              TravelCostOptions::Backend backend,
                              const std::string& name,
                              const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  BackendReport report;
  report.name = name;
  TravelCostOptions options;
  options.backend = backend;
  TravelCostEngine engine(net, options);

  // Cold: every query is a miss; microsecond-scale, timed individually.
  {
    std::vector<double> samples;
    samples.reserve(pairs.size());
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& [s, t] : pairs) {
      auto q0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.Cost(s, t));
      auto q1 = std::chrono::steady_clock::now();
      samples.push_back(Seconds(q0, q1) * 1e9);
    }
    auto t1 = std::chrono::steady_clock::now();
    report.cold = Summarize(std::move(samples), Seconds(t0, t1), pairs.size());
  }

  // Warm: every query is a hit; tens of nanoseconds, timed in chunks.
  {
    constexpr size_t kChunk = 64;
    constexpr int kRounds = 16;
    std::vector<double> samples;
    auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (size_t base = 0; base + kChunk <= pairs.size(); base += kChunk) {
        auto q0 = std::chrono::steady_clock::now();
        for (size_t k = base; k < base + kChunk; ++k) {
          benchmark::DoNotOptimize(engine.Cost(pairs[k].first, pairs[k].second));
        }
        auto q1 = std::chrono::steady_clock::now();
        samples.push_back(Seconds(q0, q1) * 1e9 / static_cast<double>(kChunk));
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    report.warm = Summarize(std::move(samples), Seconds(t0, t1),
                            kRounds * (pairs.size() / kChunk) * kChunk);
  }

  // Batched one-to-many (the source stays pinned across the batch's
  // misses): fresh engine so the batch is cold, grouped by source node.
  if (backend == TravelCostOptions::Backend::kHubLabeling) {
    TravelCostEngine batch_engine(net, options);
    constexpr size_t kFanOut = 64;
    Rng rng(11);
    const int64_t n = static_cast<int64_t>(net.num_nodes());
    std::vector<double> samples;
    std::vector<NodeId> targets(kFanOut);
    std::vector<double> out(kFanOut);
    size_t batches = pairs.size() / kFanOut;
    auto t0 = std::chrono::steady_clock::now();
    for (size_t b = 0; b < batches; ++b) {
      NodeId source = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      for (size_t k = 0; k < kFanOut; ++k) {
        targets[k] = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      }
      auto q0 = std::chrono::steady_clock::now();
      batch_engine.CostMany(source, {targets.data(), targets.size()},
                            out.data());
      auto q1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(out.data());
      samples.push_back(Seconds(q0, q1) * 1e9 / static_cast<double>(kFanOut));
    }
    auto t1 = std::chrono::steady_clock::now();
    report.cost_many =
        Summarize(std::move(samples), Seconds(t0, t1), batches * kFanOut);
  }
  return report;
}

void RunLatencyStudy() {
  DatasetSpec spec = DatasetByName("CHD", 1.0);
  RoadNetwork net = BuildNetwork(&spec);
  const auto pairs = StudyPairs(net, 2048);

  std::printf("\n==================================================================\n");
  std::printf("Shortest-path latency study: CHD preset (%zu nodes, %zu pairs)\n",
              net.num_nodes(), pairs.size());
  std::printf("cold = engine misses (backend-bound), warm = engine hits\n");
  std::printf("(LRU-bound, chunk-averaged), many = one-to-many CostMany\n");
  std::printf("==================================================================\n");
  std::printf("%-14s%-8s%12s%12s%16s\n", "backend", "phase", "p50 (ns)",
              "p99 (ns)", "queries/sec");

  std::vector<BackendReport> reports;
  reports.push_back(RunStudyBackend(
      net, TravelCostOptions::Backend::kHubLabeling, "HL", pairs));
  reports.push_back(RunStudyBackend(
      net, TravelCostOptions::Backend::kContractionHierarchies, "CH", pairs));
  reports.push_back(RunStudyBackend(
      net, TravelCostOptions::Backend::kBidirectionalDijkstra, "BiDijkstra",
      pairs));

  auto row = [](const char* backend, const char* phase, const PhaseStats& s) {
    std::printf("%-14s%-8s%12.0f%12.0f%16.0f\n", backend, phase, s.p50_ns,
                s.p99_ns, s.qps);
  };
  for (const BackendReport& r : reports) {
    row(r.name.c_str(), "cold", r.cold);
    row(r.name.c_str(), "warm", r.warm);
    if (r.cost_many.qps > 0) row(r.name.c_str(), "many", r.cost_many);
  }
  std::fflush(stdout);

  if (const char* dir = std::getenv("STRUCTRIDE_JSON_DIR")) {
    std::string path =
        std::string(dir) + "/BENCH_micro_shortest_path_latency.json";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\n  \"bench\": \"micro_shortest_path_latency\",\n");
      std::fprintf(f, "  \"dataset\": \"CHD\",\n  \"pairs\": %zu,\n  \"rows\": [\n",
                   pairs.size());
      bool first = true;
      auto jrow = [&](const std::string& backend, const char* phase,
                      const PhaseStats& s) {
        std::fprintf(f,
                     "%s    {\"backend\": \"%s\", \"phase\": \"%s\", "
                     "\"p50_ns\": %.1f, \"p99_ns\": %.1f, \"qps\": %.0f}",
                     first ? "" : ",\n", backend.c_str(), phase, s.p50_ns,
                     s.p99_ns, s.qps);
        first = false;
      };
      for (const BackendReport& r : reports) {
        jrow(r.name, "cold", r.cold);
        jrow(r.name, "warm", r.warm);
        if (r.cost_many.qps > 0) jrow(r.name, "many", r.cost_many);
      }
      std::fprintf(f, "\n  ]\n}\n");
      std::fclose(f);
      std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    }
  }
}

// ------------------------------------------------------------------------
// Part 2: Google-Benchmark cases.

const RoadNetwork& Net() {
  static RoadNetwork net = [] {
    CityOptions opt;
    opt.rows = 40;
    opt.cols = 40;
    opt.seed = 9;
    return GenerateGridCity(opt);
  }();
  return net;
}

const HubLabeling& Labels() {
  static HubLabeling hl(Net());
  return hl;
}

// Raw hub-label queries, in ns per query. Random pairs rarely share an
// endpoint with the query before, so nearly every one pins its source
// first; pairs sharing a source (64 targets each, as when one node is
// priced against a candidate set) mostly walk only the target's label.
void BM_HubLabelQuery(benchmark::State& state, bool shared_source) {
  const RoadNetwork& net = Net();
  const HubLabeling& hl = Labels();
  Rng rng(1);
  const int64_t n = static_cast<int64_t>(net.num_nodes());
  NodeId s = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    if (!shared_source || i++ % 64 == 0) {
      s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    }
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    benchmark::DoNotOptimize(hl.Query(s, t));
  }
}
BENCHMARK_CAPTURE(BM_HubLabelQuery, random_pairs, false);
BENCHMARK_CAPTURE(BM_HubLabelQuery, shared_source, true);

void BM_BidirectionalDijkstra(benchmark::State& state) {
  const RoadNetwork& net = Net();
  Rng rng(1);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    benchmark::DoNotOptimize(BidirectionalDijkstra(net, s, t));
  }
}
BENCHMARK(BM_BidirectionalDijkstra);

void BM_CachedEngineHot(benchmark::State& state) {
  // Repeated queries over a small node set: the LRU absorbs nearly all.
  static TravelCostEngine engine(Net());
  Rng rng(2);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(
        static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1)),
        static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1)));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.Cost(s, t));
  }
}
BENCHMARK(BM_CachedEngineHot);

void BM_EngineCostMany(benchmark::State& state) {
  // One-to-many batches, warm cache: per-target cost of the batched path.
  static TravelCostEngine engine(Net());
  Rng rng(2);
  constexpr size_t kFanOut = 64;
  std::vector<NodeId> targets(kFanOut);
  for (size_t k = 0; k < kFanOut; ++k) {
    targets[k] =
        static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1));
  }
  NodeId source = static_cast<NodeId>(rng.UniformInt(0, Net().num_nodes() - 1));
  std::vector<double> out(kFanOut);
  for (auto _ : state) {
    engine.CostMany(source, {targets.data(), targets.size()}, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFanOut));
}
BENCHMARK(BM_EngineCostMany);

// One leg of the share-graph screens, in ns per call over random node
// pairs of the NYC preset graph: the straight-line bound, and the landmark
// bound the second screen adds (8 landmarks, one 64-byte row per node).
void BM_LowerBound(benchmark::State& state, bool landmark) {
  static const RoadNetwork net = [] {
    DatasetSpec spec = DatasetByName("NYC", 1.0);
    return BuildNetwork(&spec);
  }();
  // The bounds do not depend on the backend; skip the hub-label build.
  static const TravelCostEngine engine(net, [] {
    TravelCostOptions options;
    options.backend = TravelCostOptions::Backend::kBidirectionalDijkstra;
    return options;
  }());
  constexpr size_t kPairs = 4096;  // a power of two: the loop masks
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(4);
  const int64_t n = static_cast<int64_t>(net.num_nodes());
  for (size_t i = 0; i < kPairs; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                       static_cast<NodeId>(rng.UniformInt(0, n - 1)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto [s, t] = pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(landmark ? engine.LandmarkLowerBound(s, t)
                                      : engine.LowerBound(s, t));
  }
}
BENCHMARK_CAPTURE(BM_LowerBound, straight_line, false);
BENCHMARK_CAPTURE(BM_LowerBound, landmark, true);

void BM_DijkstraAll(benchmark::State& state) {
  const RoadNetwork& net = Net();
  Rng rng(3);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    benchmark::DoNotOptimize(DijkstraAll(net, s));
  }
}
BENCHMARK(BM_DijkstraAll);

void BM_HubLabelBuild(benchmark::State& state) {
  CityOptions opt;
  opt.rows = static_cast<int>(state.range(0));
  opt.cols = static_cast<int>(state.range(0));
  opt.seed = 11;
  RoadNetwork net = GenerateGridCity(opt);
  for (auto _ : state) {
    HubLabeling hl(net);
    benchmark::DoNotOptimize(hl.TotalLabelEntries());
  }
  state.SetLabel(std::to_string(net.num_nodes()) + " nodes");
}
BENCHMARK(BM_HubLabelBuild)
    ->Arg(10)
    ->Arg(20)
    ->Arg(48)  // the NYC preset's grid
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace structride

int main(int argc, char** argv) {
  structride::RunLatencyStudy();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
