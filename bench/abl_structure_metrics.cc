// Structure metrics of real (builder-produced) shareability graphs across
// the three dataset presets: the measurements behind the paper's theory —
// power-law degree profile (Theorem IV.1's assumption), degeneracy, largest
// clique omega (Eq. 7 regime), greedy capacity-bounded clique partition vs
// the Bhasker-Samad bound theta'_upper (Eqs. 6/8). The builder's
// lower-bound pair screen is lossless, so each graph is exactly the one
// exact pair checking alone would build; the paper's angle pruning has no
// structural footprint here.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sharegraph/analysis.h"
#include "sharegraph/builder.h"
#include "sim/datasets.h"
#include "sim/workload.h"

using namespace structride;
using namespace structride::bench;

int main() {
  const double scale = BenchScale();
  std::printf("\n=====================================================================\n");
  std::printf("Shareability-graph structure across datasets (one 60 s batch window)\n");
  std::printf("=====================================================================\n");
  std::printf("%-9s%7s%8s%9s%7s%7s%7s%10s%9s%8s\n", "city", "nodes", "edges",
              "mean-deg", "eta", "degen", "omega", "partition", "theta'",
              "comps");
  for (const std::string& ds :
       {std::string("CHD"), std::string("NYC"), std::string("Cainiao")}) {
    DatasetSpec spec = DatasetByName(ds, scale);
    RoadNetwork net = BuildNetwork(&spec);
    TravelCostEngine engine(net);
    spec.workload.duration = 60;
    spec.workload.num_requests = std::max(150, spec.workload.num_requests / 60);
    std::vector<Request> window =
        GenerateWorkload(net, &engine, spec.policy, spec.workload);

    ShareGraphBuilder builder(&engine, ShareGraphBuilderOptions{});
    builder.AddBatch(window);
    StructureReport report =
        AnalyzeStructure(builder.graph(), static_cast<size_t>(spec.capacity));
    const std::string series = "share_graph";
    RecordJsonValue(series, ds, "nodes", report.degrees.num_nodes);
    RecordJsonValue(series, ds, "edges", report.degrees.num_edges);
    RecordJsonValue(series, ds, "mean_degree", report.degrees.mean_degree);
    RecordJsonValue(series, ds, "degeneracy", report.degeneracy);
    RecordJsonValue(series, ds, "max_clique", report.max_clique);
    RecordJsonValue(series, ds, "partition_cliques",
                    report.greedy_partition_cliques);
    std::printf("%-9s%7zu%8zu%9.2f%7.2f%7d%7zu%10zu%9zu%8zu\n", ds.c_str(),
                report.degrees.num_nodes, report.degrees.num_edges,
                report.degrees.mean_degree, report.degrees.power_law_exponent,
                report.degeneracy, report.max_clique,
                report.greedy_partition_cliques, report.partition_upper_bound,
                report.num_components);
  }
  std::printf("\nReading: the greedy capacity-bounded partition stays below theta'\n"
              "(Eqs. 6/8) and degeneracy stays close to omega — the sparse, cohesive\n"
              "structure Theorem IV.1 assumes. The builder's lower-bound pair screen\n"
              "is lossless, so these are exactly the graphs exact checking of every\n"
              "pair builds: the screen saves shortest-path queries (Tables V/VI),\n"
              "never edges.\n");
  return 0;
}
