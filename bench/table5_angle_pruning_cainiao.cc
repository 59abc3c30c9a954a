// Table V reproduction (Appendix B) on the Cainiao dataset. Paper: SARD-O
// (SARD plus angle pruning) saves up to 41.9% of queries and 33.9% of time
// with almost no quality change. Here SARD runs the pruning's lossless
// form, the lower-bound pair screen, on every pair and SARD-O is an alias,
// so a SARD-O row would repeat the SARD row: the table prints one SARD row,
// the saving already included.

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
  BenchContext ctx("Cainiao", scale);
  std::printf("\n================================================================\n");
  std::printf("Table V: SARD with the lower-bound pair screen (Cainiao)\n");
  std::printf("================================================================\n");
  std::printf("%-10s%16s%14s%18s%18s%12s\n", "method", "unified cost",
              "service", "#SP queries (K)", "pair checks (K)", "time (s)");
  RunMetrics m = ctx.Run("SARD", PointParams{});
  RecordJsonRow("SARD", "Cainiao", m);
  std::printf("%-10s%16.0f%14.4f%18.0f%18.0f%12.2f\n", "SARD", m.unified_cost,
              m.service_rate, static_cast<double>(m.sp_queries) / 1e3,
              static_cast<double>(m.sharegraph_pair_checks) / 1e3,
              m.running_time);
  return 0;
}
