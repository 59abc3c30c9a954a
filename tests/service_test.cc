// The streaming-service-mode contract (DESIGN.md §13):
//  1. service_mode=false is the replay engine: every service-mode metric
//     stays zero across the dispatcher roster × the three dataset presets ×
//     1 and 8 worker threads — none of the ingestion machinery may leak
//     into replay runs (whose outcomes the golden digests pin).
//  2. A service run terminates with every request at exactly one terminal
//     outcome (shed arrivals included), reports ingest→decision latency
//     quantiles in order, and observes the ring depth it actually used.
//  3. A full ring sheds instead of blocking: admission control, counted,
//     never served, never releasing.
//  4. Service mode composes with geo-sharding (the engine's conservation
//     and census SR_CHECKs run on every round).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "tests/test_fixtures.h"

namespace structride {
namespace {

void ExpectServiceMetricsZero(const RunMetrics& m) {
  EXPECT_EQ(m.dispatch_latency_p50_ms, 0);
  EXPECT_EQ(m.dispatch_latency_p99_ms, 0);
  EXPECT_EQ(m.dispatch_latency_p999_ms, 0);
  EXPECT_EQ(m.max_sustained_qps, 0);
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.ingest_queue_depth_max, 0u);
}

// Contract 1: with service_mode at its default (false), every roster
// dispatcher on all three presets reports all-zero service metrics.
TEST(ServiceModeOffTest, ReplayEngineUnchangedAcrossRosterAndDatasets) {
  for (const std::string ds : {"CHD", "NYC", "Cainiao"}) {
    TinyPreset tiny(ds);
    SimulationOptions sopts = tiny.Options();
    EXPECT_FALSE(sopts.service_mode);  // the default stays off
    for (const std::string& algo : AllDispatcherNames()) {
      SCOPED_TRACE(ds + " / " + algo);
      ExpectServiceMetricsZero(
          tiny.MakeEngine(sopts)->Run(algo, tiny.Config()));
    }
  }
}

// Contract 2: a service run accounts for every request exactly once and
// reports ordered latency quantiles from a populated histogram.
TEST(ServiceModeTest, EveryRequestReachesOneTerminalOutcome) {
  TinyPreset tiny("NYC");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;  // arrivals finish in tens of milliseconds
  RunMetrics m = tiny.MakeEngine(sopts)->Run("SARD", tiny.Config());
  const int total = m.total_requests;
  ASSERT_GT(total, 0);
  // Ample ring: nothing shed, so the terminal outcomes partition the
  // stream exactly.
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.served + m.cancelled + m.expired + m.rejected + m.late_dropoffs,
            total);
  EXPECT_GT(m.served, 0);
  // Every request went through the ring and through a dispatch round.
  EXPECT_GE(m.ingest_queue_depth_max, 1u);
  EXPECT_GT(m.dispatch_latency_p50_ms, 0);
  EXPECT_LE(m.dispatch_latency_p50_ms, m.dispatch_latency_p99_ms);
  EXPECT_LE(m.dispatch_latency_p99_ms, m.dispatch_latency_p999_ms);
  // One run probes one rate; the bench, not the engine, fills this.
  EXPECT_EQ(m.max_sustained_qps, 0);
}

// Contract 2, trace-paced: arrival gaps follow the stream's own spacing.
TEST(ServiceModeTest, TraceArrivalsDrainToo) {
  TinyPreset tiny("CHD");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;
  sopts.service_trace_arrivals = true;
  RunMetrics m = tiny.MakeEngine(sopts)->Run("GAS", tiny.Config());
  EXPECT_EQ(m.shed_requests, 0u);
  EXPECT_EQ(m.served + m.cancelled + m.expired + m.rejected + m.late_dropoffs,
            m.total_requests);
  EXPECT_GT(m.dispatch_latency_p99_ms, 0);
}

// Contract 3: a capacity-1 ring against a deliberately slow drain cadence
// must shed — and shed requests stay unserved, never crash the census.
TEST(ServiceModeTest, FullRingShedsInsteadOfBlocking) {
  TinyPreset tiny("NYC");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 4000;           // 0.25 ms arrival gap...
  sopts.service_queue_capacity = 1;   // ...into a one-slot ring...
  sopts.service_time_scale = 250;     // ...drained every 20 ms of wall
  RunMetrics m = tiny.MakeEngine(sopts)->Run("pruneGDP", tiny.Config());
  EXPECT_GT(m.shed_requests, 0u);
  EXPECT_LT(m.served + m.cancelled + m.expired + m.rejected, m.total_requests);
  EXPECT_EQ(static_cast<uint64_t>(m.served + m.cancelled + m.expired +
                                  m.rejected + m.late_dropoffs) +
                m.shed_requests,
            static_cast<uint64_t>(m.total_requests));
  EXPECT_EQ(m.ingest_queue_depth_max, 1u);  // the ring never holds more
}

// Contract 4: service mode under geo-sharding — the per-round conservation
// checks and the final census (which must count shed arrivals) all run.
TEST(ServiceModeTest, ComposesWithGeoSharding) {
  TinyPreset tiny("CHD");
  SimulationOptions sopts = tiny.Options();
  sopts.service_mode = true;
  sopts.service_qps = 2000;
  DispatchConfig config = tiny.Config(4);
  config.num_shards = 4;
  RunMetrics m = tiny.MakeEngine(sopts)->Run("SARD", config);
  EXPECT_EQ(m.num_shards, 4);
  EXPECT_EQ(static_cast<uint64_t>(m.served + m.cancelled + m.expired +
                                  m.rejected + m.late_dropoffs) +
                m.shed_requests,
            static_cast<uint64_t>(m.total_requests));
  EXPECT_GT(m.dispatch_latency_p99_ms, 0);
}

}  // namespace
}  // namespace structride
