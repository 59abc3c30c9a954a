// Table VI reproduction (Appendix D) on the CHD and NYC datasets. Paper:
// SARD-O (SARD plus angle pruning) saves up to 7.3% of shortest-path
// queries and 5.2% of running time with no harm to quality. Here SARD runs
// the pruning's lossless form, the lower-bound pair screen, on every pair
// and SARD-O is an alias, so a SARD-O row would repeat the SARD row: the
// table prints one SARD row per dataset, the saving already included.

#include <cstdio>
#include <string>

#include "bench/harness.h"

using structride::RunMetrics;
using structride::bench::BenchContext;
using structride::bench::BenchScale;
using structride::bench::PointParams;
using structride::bench::RecordJsonRow;

int main() {
  const double scale = BenchScale();
  std::printf("\n================================================================\n");
  std::printf("Table VI: SARD with the lower-bound pair screen (CHD, NYC)\n");
  std::printf("================================================================\n");
  std::printf("%-8s%16s%14s%18s%18s%12s\n", "city", "unified cost", "service",
              "#SP queries (K)", "pair checks (K)", "time (s)");
  for (const std::string& dataset : {std::string("CHD"), std::string("NYC")}) {
    BenchContext ctx(dataset, scale);
    RunMetrics m = ctx.Run("SARD", PointParams{});
    RecordJsonRow("SARD", dataset, m);
    std::printf("%-8s%16.0f%14.4f%18.0f%18.0f%12.2f\n", dataset.c_str(),
                m.unified_cost, m.service_rate,
                static_cast<double>(m.sp_queries) / 1e3,
                static_cast<double>(m.sharegraph_pair_checks) / 1e3,
                m.running_time);
  }
  return 0;
}
