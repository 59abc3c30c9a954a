// Fig. 14 reproduction: peak memory of each algorithm's dominant structures
// at the Table-III defaults, via instrumented byte accounting (DESIGN.md §4
// explains the substitution for process-RSS measurement). Each row is the
// peak over the run's batches of one dispatcher's instrumented structures:
// for RTV, GAS and SARD the share graph plus the batch's trip, group or
// proposal records; for the online methods their fleet index and per-batch
// candidate scratch. At the default scale 0.25 the three graph-based
// methods land within 2x of one another and above every online method; the
// paper's RTV >> GAS ~= SARD ordering does not show at this scale.

#include <cstdio>
#include <string>

#include "bench/harness.h"

using structride::RunMetrics;
using structride::bench::BenchAlgorithms;
using structride::bench::BenchContext;
using structride::bench::BenchScale;
using structride::bench::PointParams;
using structride::bench::RecordJsonRow;

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Fig. 14: Memory consumption (defaults, scale %.2f)\n", scale);
  std::printf("================================================================\n");
  std::printf("%-10s%-14s%16s%14s%14s\n", "dataset", "algorithm", "memory (KB)",
              "service", "run (s)");
  for (const std::string& dataset : {std::string("CHD"), std::string("NYC")}) {
    BenchContext ctx(dataset, scale);
    for (const std::string& algo : BenchAlgorithms()) {
      PointParams p;
      RunMetrics m = ctx.Run(algo, p);
      RecordJsonRow(algo, dataset, m);
      std::printf("%-10s%-14s%16.0f%14.3f%14.2f\n", dataset.c_str(), algo.c_str(),
                  static_cast<double>(m.memory_bytes) / 1e3, m.service_rate,
                  m.running_time);
    }
  }
  return 0;
}
