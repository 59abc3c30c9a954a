// End-to-end dispatcher smoke and invariants on a tiny CHD run: every
// registered dispatcher completes, reports sane metrics, reproduces
// deterministically, the SARD-O alias is SARD, and SARD's parallel
// acceptance never changes the assignment outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "dispatch/spatial_index.h"
#include "roadnet/generator.h"
#include "sim/engine.h"
#include "tests/test_fixtures.h"
#include "util/random.h"

namespace structride {
namespace {

// The shrunk CHD preset; every Run is a fresh simulation on its engine.
struct TinyChd : TinyPreset {
  TinyChd() : TinyPreset("CHD") {}

  RunMetrics Run(const std::string& algorithm, const DispatchConfig& config) {
    return MakeEngine(Options())->Run(algorithm, config);
  }
};

// The spatial index's reference: in-service fleet indices sorted by
// straight-line distance from \p from, ties by vehicle index.
std::vector<size_t> VehiclesByDistance(const std::vector<Vehicle>& fleet,
                                       const RoadNetwork& net, NodeId from) {
  std::vector<size_t> order;
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].in_service()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return net.EuclidLowerBound(fleet[a].node(), from) <
           net.EuclidLowerBound(fleet[b].node(), from);
  });
  return order;
}

TEST(DispatchTest, EveryDispatcherCompletesWithSaneMetrics) {
  TinyChd fixture;
  bool first = true;
  for (const std::string& name : AllDispatcherNames()) {
    RunMetrics m = fixture.Run(name, fixture.Config());
    SCOPED_TRACE(name);
    EXPECT_GE(m.service_rate, 0.0);
    EXPECT_LE(m.service_rate, 1.0);
    EXPECT_EQ(m.total_requests, static_cast<int>(fixture.requests.size()));
    EXPECT_LE(m.served, m.total_requests);
    EXPECT_TRUE(std::isfinite(m.unified_cost));
    EXPECT_GE(m.travel_cost, 0.0);
    EXPECT_NEAR(m.unified_cost, m.travel_cost + m.penalty_cost, 1e-6);
    if (first) {
      // Later runs share the fixture's warm travel-cost cache and may
      // legitimately need no new backend computations.
      EXPECT_GT(m.sp_queries, 0u);
      first = false;
    }
    EXPECT_GT(m.memory_bytes, 0u);
    EXPECT_EQ(m.cancelled, 0);
  }
}

TEST(DispatchTest, RunsAreDeterministic) {
  for (const std::string& name : {std::string("SARD"), std::string("GAS"),
                                  std::string("pruneGDP")}) {
    TinyChd a, b;
    RunMetrics ma = a.Run(name, a.Config());
    RunMetrics mb = b.Run(name, b.Config());
    SCOPED_TRACE(name);
    EXPECT_DOUBLE_EQ(ma.unified_cost, mb.unified_cost);
    EXPECT_DOUBLE_EQ(ma.service_rate, mb.service_rate);
    EXPECT_EQ(ma.served, mb.served);
  }
}

TEST(DispatchTest, SardOAliasReproducesSard) {
  // SARD already screens every pair with angle pruning's lossless form, so
  // the SARD-O name must replay SARD exactly. Separate fixtures give both
  // runs a cold travel-cost cache, which makes sp_queries comparable.
  TinyChd sard, sard_o;
  RunMetrics m = sard.Run("SARD", sard.Config());
  RunMetrics m_o = sard_o.Run("SARD-O", sard_o.Config());
  EXPECT_EQ(m.served, m_o.served);
  EXPECT_EQ(m.unified_cost, m_o.unified_cost);
  EXPECT_EQ(m.sp_queries, m_o.sp_queries);
  EXPECT_EQ(m.sharegraph_pair_checks, m_o.sharegraph_pair_checks);
}

TEST(DispatchTest, ParallelAcceptanceIsThreadCountInvariant) {
  TinyChd serial, parallel;
  RunMetrics m_serial = serial.Run("SARD", serial.Config());
  DispatchConfig config = parallel.Config();
  config.sard_parallel_acceptance = true;
  config.num_threads = 4;
  RunMetrics m_parallel = parallel.Run("SARD", config);
  EXPECT_DOUBLE_EQ(m_serial.unified_cost, m_parallel.unified_cost);
  EXPECT_DOUBLE_EQ(m_serial.service_rate, m_parallel.service_rate);
  EXPECT_EQ(m_serial.served, m_parallel.served);
}

// The hard determinism bar for the parallel path: same workload and seed,
// 1 vs 8 worker threads, bitwise-equal RunMetrics. Fresh fixtures mean cold
// travel-cost caches, so sp_queries compares the actual backend work.
TEST(DispatchTest, ParallelMetricsAreBitwiseEqualAcrossThreadCounts) {
  TinyChd one, eight;
  DispatchConfig c1 = one.Config();
  c1.sard_parallel_acceptance = true;
  c1.num_threads = 1;
  DispatchConfig c8 = eight.Config();
  c8.sard_parallel_acceptance = true;
  c8.num_threads = 8;
  RunMetrics m1 = one.Run("SARD", c1);
  RunMetrics m8 = eight.Run("SARD", c8);
  EXPECT_EQ(m1.served, m8.served);
  EXPECT_EQ(m1.unified_cost, m8.unified_cost);  // bitwise, not approximate
  EXPECT_EQ(m1.travel_cost, m8.travel_cost);
  EXPECT_EQ(m1.sp_queries, m8.sp_queries);
}

// Exactness of the index itself: KNearest must reproduce the first k
// entries of the full distance sort (ties broken by vehicle index), and the
// radius query the early-breaking prefix. A third of the fleet is out of
// service (scenario downtime) — both sides of the contract must skip those
// vehicles identically.
TEST(DispatchTest, SpatialIndexMatchesFullFleetSort) {
  CityOptions copt;
  copt.rows = 12;
  copt.cols = 12;
  copt.seed = 7;
  RoadNetwork net = GenerateGridCity(copt);
  Rng rng(99);
  std::vector<Vehicle> fleet;
  for (int i = 0; i < 40; ++i) {
    NodeId node = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    fleet.emplace_back(i, node, 4);  // duplicate positions exercise ties
    if (i % 3 == 0) fleet.back().set_in_service(false);
  }
  dispatch::FleetSpatialIndex index(fleet, net);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId from = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    std::vector<size_t> full = VehiclesByDistance(fleet, net, from);
    for (size_t k : {size_t{1}, size_t{5}, size_t{16}, fleet.size(),
                     fleet.size() + 10}) {
      std::vector<size_t> got = index.KNearest(from, k);
      std::vector<size_t> want(full.begin(),
                               full.begin() + std::min(k, full.size()));
      EXPECT_EQ(got, want) << "k=" << k << " from=" << from;
    }
    for (double radius : {0.0, 2.5, 7.0, 1e9}) {
      // k = fleet size exercises the dense flat-scan path; small k the
      // grid walk with both the best-k bound and the radius cap live.
      for (size_t k : {fleet.size(), size_t{4}}) {
        std::vector<size_t> got = index.KNearestWithin(from, k, radius);
        std::vector<size_t> want;
        for (size_t vi : full) {
          if (want.size() >= k) break;
          if (net.EuclidLowerBound(fleet[vi].node(), from) > radius) break;
          want.push_back(vi);
        }
        EXPECT_EQ(got, want) << "radius=" << radius << " k=" << k
                             << " from=" << from;
      }
    }
  }
  EXPECT_TRUE(index.KNearestWithin(3, 16, -1.0).empty());
}

// A group every vehicle rejects must not starve: SARD retries its halves
// down to singletons within the batch. Two shareable requests form a pair
// group, but the whole fleet has capacity-1 vehicles with slack too tight
// for sequential service — only the singleton split can serve them.
TEST(DispatchTest, RejectedGroupSplitsDownToSingletons) {
  CityOptions copt;
  copt.rows = 8;
  copt.cols = 8;
  copt.seed = 21;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);

  // Parallel long trips from adjacent corners; gamma = 2, so the latest
  // pickup allows one direct trip of slack — never a full trip out and back.
  auto make_request = [&](RequestId id, NodeId s, NodeId t) {
    Request r;
    r.id = id;
    r.source = s;
    r.destination = t;
    r.release_time = 0;
    r.direct_cost = engine.Cost(s, t);
    r.deadline = 2 * r.direct_cost;
    r.latest_pickup = r.deadline - r.direct_cost;
    return r;
  };
  Request r1 = make_request(1, 0, 62);
  Request r2 = make_request(2, 1, 63);

  DispatchConfig config;
  config.vehicle_capacity = 2;  // the platform believes pairs can share...
  config.sharegraph.vehicle_capacity = 2;
  config.grouping.max_group_size = 2;

  auto run_batch = [&](bool split_fallback) {
    std::vector<Vehicle> fleet;
    fleet.emplace_back(0, r1.source, 1);  // ...but every real vehicle
    fleet.emplace_back(1, r2.source, 1);  // has a single seat
    DispatchConfig c = config;
    c.sard_split_rejected_groups = split_fallback;
    std::unique_ptr<Dispatcher> dispatcher = MakeDispatcher("SARD", c);
    FullDispatchContext round(&engine, &fleet, c);
    round.ctx.pending = {&r1, &r2};
    dispatcher->OnBatch(round.BeginRound(1));
    return round.ctx.assigned.size();
  };

  // Without the fallback the pair group is proposed, rejected by both
  // vehicles, and nobody is assigned — the starvation seed.
  EXPECT_EQ(run_batch(false), 0u);
  // With it, the group splits and both riders ride solo.
  EXPECT_EQ(run_batch(true), 2u);
}

TEST(DispatchTest, CancellationFaultModelOnlyRemovesPendingRiders) {
  TinyChd fixture;
  SimulationOptions sopts;
  sopts.batch_period = 5;
  sopts.seed = 4242;
  sopts.cancellation_rate = 0.5;
  sopts.cancellation_patience = 10;
  SimulationEngine sim(fixture.engine.get(), fixture.requests, sopts);
  sim.SpawnFleet(std::max(3, fixture.spec.num_vehicles), fixture.spec.capacity);
  RunMetrics m = sim.Run("SARD", fixture.Config());
  EXPECT_GE(m.cancelled, 0);
  EXPECT_LE(m.cancelled + m.served, m.total_requests);
}

// The registry's public roster: the paper's six in table order plus the
// SARD-O alias, and every listed name actually constructs.
TEST(DispatchTest, ListDispatchersNamesEveryConstructibleDispatcher) {
  const std::vector<std::string>& names = ListDispatchers();
  const std::vector<std::string> paper_six = AllDispatcherNames();
  ASSERT_EQ(names.size(), paper_six.size() + 1);
  for (size_t i = 0; i < paper_six.size(); ++i) {
    EXPECT_EQ(names[i], paper_six[i]);
  }
  EXPECT_EQ(names.back(), "SARD-O");
  DispatchConfig config;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    EXPECT_NE(MakeDispatcher(name, config), nullptr);
  }
  // Same vector every call: callers may hold the reference.
  EXPECT_EQ(&ListDispatchers(), &names);
}

// Spatial-index edge cases: queries over an empty fleet, an all-out-of-
// service fleet, and a fleet collapsed into one grid cell must return
// empty/filtered prefixes — never UB — and keep the prefix-of-full-sort
// contract.
TEST(DispatchTest, SpatialIndexHandlesDegenerateFleets) {
  CityOptions copt;
  copt.rows = 8;
  copt.cols = 8;
  copt.seed = 5;
  RoadNetwork net = GenerateGridCity(copt);

  // Empty fleet: every query is empty, no division by zero cells.
  std::vector<Vehicle> empty;
  dispatch::FleetSpatialIndex idx_empty(empty, net);
  EXPECT_TRUE(idx_empty.KNearest(0, 0).empty());
  EXPECT_TRUE(idx_empty.KNearest(0, 5).empty());
  EXPECT_TRUE(idx_empty.KNearestWithin(0, 5, 1e9).empty());
  size_t buf[4];
  EXPECT_EQ(idx_empty.KNearestInto(0, 4, buf), 0u);

  // Every vehicle out of service: indexed but filtered from every answer,
  // exactly like the full-sort reference.
  std::vector<Vehicle> parked;
  for (int i = 0; i < 6; ++i) {
    parked.emplace_back(i, static_cast<NodeId>(i), 4);
    parked.back().set_in_service(false);
  }
  dispatch::FleetSpatialIndex idx_parked(parked, net);
  EXPECT_TRUE(idx_parked.KNearest(0, parked.size()).empty());
  EXPECT_TRUE(VehiclesByDistance(parked, net, 0).empty());
  EXPECT_TRUE(idx_parked.KNearestWithin(0, parked.size(), 1e9).empty());

  // Whole fleet on one node (one grid cell, zero spatial extent): ties
  // break by ascending index and k past the fleet size clamps.
  std::vector<Vehicle> stacked;
  for (int i = 0; i < 5; ++i) stacked.emplace_back(i, 3, 4);
  stacked[2].set_in_service(false);
  dispatch::FleetSpatialIndex idx_stacked(stacked, net);
  std::vector<size_t> want = {0, 1, 3, 4};  // 2 is off duty
  EXPECT_EQ(idx_stacked.KNearest(3, stacked.size() + 7), want);
  EXPECT_EQ(idx_stacked.KNearest(3, 2),
            (std::vector<size_t>{0, 1}));  // filtered prefix
  EXPECT_EQ(idx_stacked.KNearestWithin(3, stacked.size(), 0.0), want);
  EXPECT_EQ(VehiclesByDistance(stacked, net, 3), want);
}

}  // namespace
}  // namespace structride
