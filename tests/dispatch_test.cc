// End-to-end dispatcher smoke and invariants on a tiny CHD run: every
// registered dispatcher completes, reports sane metrics, reproduces
// deterministically, the SARD-O alias is SARD, and SARD's parallel
// acceptance never changes the assignment outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/common.h"
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

// The fleet index's reference: the view's in-service vehicles, view-local,
// sorted by straight-line distance from \p from, ties by index.
std::vector<size_t> VehiclesByDistance(const FleetView& fleet,
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

// Holds the candidate scan (the dispatchers' only way into the fleet index)
// to the full sort over ctx.fleet: KNearest must reproduce the first k
// entries (k in {1, 16, view size} and past it), and the radius query the
// early-breaking prefix, on both the dense flat-scan and the grid-walk path.
void ExpectScanMatchesFullSort(const RoadNetwork& net,
                               const DispatchContext& ctx, NodeId from) {
  const std::vector<size_t> full = VehiclesByDistance(ctx.fleet, net, from);
  const size_t n = ctx.fleet.size();
  std::vector<size_t> buf(n + 16);
  for (size_t k : {size_t{1}, size_t{16}, n, n + 10}) {
    if (k == 0) continue;
    const size_t count =
        dispatch::NearestVehiclesInto(ctx, from, k, buf.data());
    std::vector<size_t> got(buf.begin(), buf.begin() + count);
    std::vector<size_t> want(full.begin(),
                             full.begin() + std::min(k, full.size()));
    EXPECT_EQ(got, want) << "k=" << k << " from=" << from;
  }
  for (double radius : {0.0, 2.5, 7.0, 1e9}) {
    for (size_t k : {n, size_t{4}}) {
      if (k == 0) continue;
      const size_t count = dispatch::NearestVehiclesWithinInto(
          ctx, from, k, radius, buf.data());
      std::vector<size_t> got(buf.begin(), buf.begin() + count);
      std::vector<size_t> want;
      for (size_t vi : full) {
        if (want.size() >= k) break;
        if (net.EuclidLowerBound(ctx.fleet[vi].node(), from) > radius) break;
        want.push_back(vi);
      }
      EXPECT_EQ(got, want) << "radius=" << radius << " k=" << k
                           << " from=" << from;
    }
  }
  EXPECT_EQ(dispatch::NearestVehiclesWithinInto(ctx, from, 16, -1.0,
                                                buf.data()),
            0u);
}

// A context over \p view answering from \p index for \p shard's residents
// (-1: unrestricted).
DispatchContext ScanContext(const FleetView& view,
                            const dispatch::FleetIndex* index, int shard) {
  DispatchContext ctx;
  ctx.fleet = view;
  ctx.fleet_index = index;
  ctx.fleet_shard = shard;
  return ctx;
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
    ExpectBitwiseEqual(ma, mb);
  }
}

TEST(DispatchTest, SardOAliasReproducesSard) {
  // SARD already screens every pair with angle pruning's lossless form, so
  // the SARD-O name must replay SARD exactly. Separate fixtures give both
  // runs a cold travel-cost cache, which makes sp_queries comparable.
  TinyChd sard, sard_o;
  RunMetrics m = sard.Run("SARD", sard.Config());
  RunMetrics m_o = sard_o.Run("SARD-O", sard_o.Config());
  ExpectBitwiseEqual(m, m_o);
}

// Exactness of the engine-maintained index: after every step of a seeded
// sequence of moves, in-service flips and residency changes, the candidate
// scan over the unrestricted view and over each shard's restricted view
// must reproduce the full sort of that view. \p place draws a spawn or move
// target; a third of the fleet starts out of service; query nodes are
// uniform. Returns how many of the checked views held more than 2 x 16
// eligible vehicles, so that the production k = 16 took the grid walk
// rather than the flat scan.
int ExpectMaintainedIndexMatchesFullSort(
    const RoadNetwork& net, int num_vehicles, int num_shards, uint64_t seed,
    const std::function<NodeId(Rng&)>& place) {
  const int64_t last_node = static_cast<int64_t>(net.num_nodes()) - 1;
  Rng rng(seed);
  std::vector<Vehicle> fleet;
  std::vector<int> shard_of;
  for (int i = 0; i < num_vehicles; ++i) {
    fleet.emplace_back(i, place(rng), 4);
    if (i % 3 == 0) fleet.back().set_in_service(false);
    shard_of.push_back(static_cast<int>(rng.UniformInt(0, num_shards - 1)));
  }
  dispatch::FleetIndex index;
  index.Reset(net, fleet, shard_of, num_shards);
  std::vector<size_t> log;
  std::vector<std::vector<size_t>> members(static_cast<size_t>(num_shards));
  std::vector<MemberRanks> ranks(static_cast<size_t>(num_shards));
  int grid_walk_views = 0;

  for (int step = 0; step < 60; ++step) {
    const size_t v = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fleet.size()) - 1));
    switch (step % 3) {
      case 0: {  // a stop completion moved it
        Vehicle moved(fleet[v].id(), place(rng), 4);
        moved.set_in_service(fleet[v].in_service());
        fleet[v] = moved;
        index.Move(v, fleet[v].node());
        break;
      }
      case 1:  // downtime pulled or restored it
        fleet[v].set_in_service(!fleet[v].in_service());
        index.SetInService(v, fleet[v].in_service());
        break;
      default:  // it migrated
        shard_of[v] = static_cast<int>(rng.UniformInt(0, num_shards - 1));
        index.SetShard(v, shard_of[v]);
        break;
    }
    for (int s = 0; s < num_shards; ++s) {
      members[static_cast<size_t>(s)].clear();
      ranks[static_cast<size_t>(s)].Reset(fleet.size());
    }
    for (size_t vi = 0; vi < fleet.size(); ++vi) {
      members[static_cast<size_t>(shard_of[vi])].push_back(vi);
      ranks[static_cast<size_t>(shard_of[vi])].Add(vi);
      index.CheckVehicle(vi, fleet[vi].node(), fleet[vi].in_service(),
                         shard_of[vi]);
    }
    const NodeId from = static_cast<NodeId>(rng.UniformInt(0, last_node));
    SCOPED_TRACE("step=" + std::to_string(step));
    auto check = [&](const FleetView& view, int shard) {
      size_t eligible = 0;
      for (size_t i = 0; i < view.size(); ++i) eligible += view[i].in_service();
      if (eligible > 2 * 16) ++grid_walk_views;
      ExpectScanMatchesFullSort(net, ScanContext(view, &index, shard), from);
    };
    check(FleetView(&fleet, &log), -1);
    for (int s = 0; s < num_shards; ++s) {
      SCOPED_TRACE("shard=" + std::to_string(s));
      check(FleetView(&fleet, &log, &members[static_cast<size_t>(s)],
                      &ranks[static_cast<size_t>(s)]),
            s);
    }
  }
  return grid_walk_views;
}

// Duplicate spawn nodes exercise ties; at 40 vehicles k = 16 takes the
// flat scan, so the grid walk is checked at k = 1 and the radius query's 4.
TEST(DispatchTest, MaintainedFleetIndexMatchesFullSortUnderUpdates) {
  CityOptions copt;
  copt.rows = 12;
  copt.cols = 12;
  copt.seed = 7;
  RoadNetwork net = GenerateGridCity(copt);
  const int64_t last_node = static_cast<int64_t>(net.num_nodes()) - 1;
  ExpectMaintainedIndexMatchesFullSort(net, 40, 3, 99, [&](Rng& rng) {
    return static_cast<NodeId>(rng.UniformInt(0, last_node));
  });

  // A few hundred vehicles stacked on a few dozen nodes of an unjittered
  // grid: ties within a node and, by the grid's symmetry, across nodes. At
  // 270 vehicles the index's grid is 17 x 17, so its rows of cells, padded
  // to 32, do not fill whole 64-bit words of occupancy bits.
  CityOptions lattice;
  lattice.rows = 16;
  lattice.cols = 16;
  lattice.seed = 11;
  lattice.jitter = 0;
  RoadNetwork lattice_net = GenerateGridCity(lattice);
  Rng pick(5);
  std::vector<NodeId> stacks;
  for (int i = 0; i < 30; ++i) {
    stacks.push_back(static_cast<NodeId>(pick.UniformInt(
        0, static_cast<int64_t>(lattice_net.num_nodes()) - 1)));
  }
  auto on_stack = [&](Rng& rng) {
    return stacks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(stacks.size()) - 1))];
  };

  // A sparse fleet: every vehicle in one of the four 4 x 4 corner patches
  // of a 40 x 40 city, so most cells are empty and rings from most query
  // nodes cross many of them.
  CityOptions wide;
  wide.rows = 40;
  wide.cols = 40;
  wide.seed = 13;
  RoadNetwork wide_net = GenerateGridCity(wide);
  auto in_corner = [&](Rng& rng) {
    const int64_t corner = rng.UniformInt(0, 3);
    const int64_t r = rng.UniformInt(0, 3) + (corner / 2) * (wide.rows - 4);
    const int64_t c = rng.UniformInt(0, 3) + (corner % 2) * (wide.cols - 4);
    return static_cast<NodeId>(r * wide.cols + c);
  };

  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const int views = 60 * (1 + shards);
    EXPECT_EQ(ExpectMaintainedIndexMatchesFullSort(lattice_net, 270, shards,
                                                   17, on_stack),
              views);
    EXPECT_EQ(ExpectMaintainedIndexMatchesFullSort(wide_net, 240, shards, 19,
                                                   in_corner),
              views);
  }
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

// Fleet-index edge cases: queries over an empty fleet, an all-out-of-
// service fleet, and a fleet stacked on one node (zero spatial extent) must
// return empty/filtered prefixes — never UB — and keep the prefix-of-full-
// sort contract.
TEST(DispatchTest, FleetIndexHandlesDegenerateFleets) {
  CityOptions copt;
  copt.rows = 8;
  copt.cols = 8;
  copt.seed = 5;
  RoadNetwork net = GenerateGridCity(copt);
  std::vector<size_t> log;
  auto scan = [&](std::vector<Vehicle>* fleet, dispatch::FleetIndex* index) {
    index->Reset(net, *fleet, std::vector<int>(fleet->size(), 0), 1);
    return ScanContext(FleetView(fleet, &log), index, -1);
  };
  size_t buf[16];

  // Empty fleet: every query is empty, no division by zero cells.
  std::vector<Vehicle> empty;
  dispatch::FleetIndex idx_empty;
  DispatchContext ctx_empty = scan(&empty, &idx_empty);
  EXPECT_EQ(dispatch::NearestVehiclesInto(ctx_empty, 0, 5, buf), 0u);
  EXPECT_EQ(dispatch::NearestVehiclesWithinInto(ctx_empty, 0, 5, 1e9, buf),
            0u);
  EXPECT_EQ(idx_empty.Nearest(0), dispatch::FleetIndex::kNone);
  ExpectScanMatchesFullSort(net, ctx_empty, 0);

  // Every vehicle out of service: filtered from every answer, exactly like
  // the full-sort reference.
  std::vector<Vehicle> parked;
  for (int i = 0; i < 6; ++i) {
    parked.emplace_back(i, static_cast<NodeId>(i), 4);
    parked.back().set_in_service(false);
  }
  dispatch::FleetIndex idx_parked;
  DispatchContext ctx_parked = scan(&parked, &idx_parked);
  EXPECT_EQ(dispatch::NearestVehiclesInto(ctx_parked, 0, parked.size(), buf),
            0u);
  EXPECT_EQ(idx_parked.Nearest(0), dispatch::FleetIndex::kNone);
  ExpectScanMatchesFullSort(net, ctx_parked, 0);

  // Whole fleet on one node (one grid cell): ties break by ascending index
  // and k past the fleet size clamps.
  std::vector<Vehicle> stacked;
  for (int i = 0; i < 5; ++i) stacked.emplace_back(i, 3, 4);
  stacked[2].set_in_service(false);
  dispatch::FleetIndex idx_stacked;
  DispatchContext ctx_stacked = scan(&stacked, &idx_stacked);
  const std::vector<size_t> want = {0, 1, 3, 4};  // 2 is off duty
  size_t count =
      dispatch::NearestVehiclesInto(ctx_stacked, 3, stacked.size() + 7, buf);
  EXPECT_EQ(std::vector<size_t>(buf, buf + count), want);
  count = dispatch::NearestVehiclesInto(ctx_stacked, 3, 2, buf);
  EXPECT_EQ(std::vector<size_t>(buf, buf + count),
            (std::vector<size_t>{0, 1}));  // filtered prefix
  count = dispatch::NearestVehiclesWithinInto(ctx_stacked, 3, stacked.size(),
                                              0.0, buf);
  EXPECT_EQ(std::vector<size_t>(buf, buf + count), want);
  ExpectScanMatchesFullSort(net, ctx_stacked, 3);
}

}  // namespace
}  // namespace structride
