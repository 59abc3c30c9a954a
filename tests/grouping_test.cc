// Scheduling primitives: CheckSchedule semantics, BestInsertion held to a
// brute-force oracle (and to the kinetic-tree optimum for the cases where
// linear insertion is exact), and the grouping enumerator's clique /
// capacity invariants and warm-scratch reuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "core/insertion.h"
#include "core/kinetic_tree.h"
#include "group/grouping.h"
#include "roadnet/generator.h"
#include "roadnet/importer.h"
#include "sharegraph/builder.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// \p stops with the request's pickup spliced before index i and its dropoff
// before index j.
std::vector<Stop> SpliceRequest(const std::vector<Stop>& stops,
                                const Request& request, size_t i, size_t j) {
  std::vector<Stop> splice(stops.begin(), stops.begin() + i);
  splice.push_back(PickupStop(request));
  splice.insert(splice.end(), stops.begin() + i, stops.begin() + j);
  splice.push_back(DropoffStop(request));
  splice.insert(splice.end(), stops.begin() + j, stops.end());
  return splice;
}

// The oracle BestInsertion is held to: splice the request into every
// (pickup, dropoff) position pair, walk each splice with CheckSchedule, and
// keep the first strict minimum of the extra cost.
InsertionCandidate ReferenceInsertion(const RouteState& state,
                                      const std::vector<Stop>& stops,
                                      const Request& request,
                                      TravelCostEngine* engine) {
  InsertionCandidate best;
  const double base_cost = CheckSchedule(state, stops, engine).second;
  for (size_t i = 0; i <= stops.size(); ++i) {
    for (size_t j = i; j <= stops.size(); ++j) {
      auto [ok, cost] =
          CheckSchedule(state, SpliceRequest(stops, request, i, j), engine);
      if (ok && cost - base_cost < best.delta_cost) {
        best.feasible = true;
        best.pickup_pos = i;
        best.dropoff_pos = j;
        best.delta_cost = cost - base_cost;
        best.total_cost = cost;
      }
    }
  }
  return best;
}

// \p request with its deadlines cut to the times \p cand's splice reaches
// its pickup (no earlier than the release) and its dropoff. The splice stays
// feasible, on the brink where a screen that overestimates a leg rejects it.
Request AtTheBrink(const RouteState& state, const std::vector<Stop>& stops,
                   const Request& request, const InsertionCandidate& cand,
                   TravelCostEngine* engine) {
  const std::vector<Stop> splice =
      SpliceRequest(stops, request, cand.pickup_pos, cand.dropoff_pos);
  Request brink = request;
  double time = state.start_time;
  NodeId pos = state.start;
  for (size_t k = 0; k < splice.size(); ++k) {
    const Stop& stop = splice[k];
    if (stop.node != pos) time += engine->Cost(pos, stop.node);
    pos = stop.node;
    if (k == cand.pickup_pos) {
      brink.latest_pickup = std::max(time, request.release_time);
    }
    if (k == cand.dropoff_pos + 1) brink.deadline = time;
    if (stop.kind == StopKind::kPickup && time < stop.earliest) {
      time = stop.earliest;
    }
  }
  return brink;
}

// Seeded vehicles — 0-8 committed stops, riders on board, capacities 1-6,
// start times from the moment the vehicle is free to past its first
// deadline — each priced for a sample of requests by BestInsertion, once
// with the vehicle's leg plane and once looking the legs up, against the
// oracle: same verdict, same slots, bitwise the same delta and total. Every
// feasible request is priced again at the brink of its best splice. For
// every feasible candidate, the legs ApplyInsertionInto writes must be the
// legs a fresh CommitStops of the grown schedule stores.
void ExpectInsertionMatchesOracle(const RoadNetwork& net,
                                  TravelCostEngine* engine,
                                  const std::vector<Request>& requests,
                                  uint64_t seed) {
  Rng rng(seed);
  size_t compared = 0, feasible = 0, with_riders = 0, broken_base = 0;
  size_t stops_seen[9] = {};
  for (int trial = 0; trial < 300; ++trial) {
    const int capacity = static_cast<int>(rng.UniformInt(1, 6));
    Vehicle vehicle(0,
                    static_cast<NodeId>(rng.UniformInt(
                        0, static_cast<int64_t>(net.num_nodes()) - 1)),
                    capacity);
    const int64_t wanted = rng.UniformInt(0, 4);
    int64_t committed = 0;
    for (size_t k = static_cast<size_t>(rng.UniformInt(
             0, static_cast<int64_t>(requests.size()) - 1));
         k < requests.size() && committed < wanted; ++k) {
      if (TryInsertAndCommit(&vehicle, requests[k], requests[k].release_time,
                             engine) < kInf) {
        ++committed;
      }
    }
    // Complete a stop or two so riders are on board.
    for (int64_t done = rng.UniformInt(0, 2);
         done > 0 && vehicle.schedule().size() > 1; --done) {
      vehicle.AdvanceTo(vehicle.next_completion_time(), nullptr);
    }
    const std::vector<Stop>& stops = vehicle.schedule().stops();
    ASSERT_LE(stops.size(), 8u);
    ++stops_seen[stops.size()];
    with_riders += vehicle.onboard() > 0;

    // Prices one request; returns the oracle's answer.
    auto check = [&](const Request& r, double now) {
      const RouteState state = vehicle.route_state(now);
      const InsertionCandidate want =
          ReferenceInsertion(state, stops, r, engine);
      const InsertionCandidate with_legs =
          BestInsertion(state, stops, vehicle.legs(), r, engine);
      const InsertionCandidate looked_up =
          BestInsertion(state, stops, {}, r, engine);
      for (const InsertionCandidate* got : {&with_legs, &looked_up}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " request " +
                     std::to_string(r.id) + " stops " +
                     std::to_string(stops.size()) +
                     (got == &with_legs ? " with legs" : " looked up"));
        EXPECT_EQ(got->feasible, want.feasible);
        if (!got->feasible || !want.feasible) continue;
        EXPECT_EQ(got->pickup_pos, want.pickup_pos);
        EXPECT_EQ(got->dropoff_pos, want.dropoff_pos);
        EXPECT_EQ(Bits(got->delta_cost), Bits(want.delta_cost));
        EXPECT_EQ(Bits(got->total_cost), Bits(want.total_cost));
      }
      ++compared;
      if (!want.feasible || !with_legs.feasible) return want;
      ++feasible;

      std::vector<Stop> grown(stops.size() + 2);
      std::vector<double> grown_legs(stops.size() + 2);
      ApplyInsertionInto(stops, vehicle.legs(), r, with_legs, grown.data(),
                         grown_legs.data());
      Vehicle fresh = vehicle;
      EXPECT_TRUE(fresh.CommitStops(grown, now, engine));
      EXPECT_EQ(fresh.legs().size(), grown_legs.size());
      for (size_t k = 0; k < grown_legs.size() && k < fresh.legs().size();
           ++k) {
        EXPECT_EQ(Bits(grown_legs[k]), Bits(fresh.legs()[k])) << "leg " << k;
      }
      return want;
    };

    const double free_at = vehicle.route_state(0).start_time;
    for (int probe = 0; probe < 12; ++probe) {
      // A workload request re-released around the pricing time, keeping
      // its endpoints and slack.
      Request r = requests[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(requests.size()) - 1))];
      const double now =
          probe % 4 == 0
              ? rng.Uniform(free_at,
                            (stops.empty() ? free_at : stops[0].deadline) + 20)
              : rng.Uniform(free_at, free_at + 10);
      const double shift = now + rng.Uniform(-10, 10) - r.release_time;
      r.release_time += shift;
      r.latest_pickup += shift;
      r.deadline += shift;
      broken_base +=
          !CheckSchedule(vehicle.route_state(now), stops, engine).first;
      const InsertionCandidate want = check(r, now);
      if (want.feasible) {
        check(AtTheBrink(vehicle.route_state(now), stops, r, want, engine),
              now);
      }
    }
  }
  // The inputs cover what they claim to.
  EXPECT_GT(feasible, compared / 20);
  EXPECT_GT(compared - feasible, compared / 10);
  EXPECT_GT(with_riders, 10u);
  EXPECT_GT(broken_base, 0u);
  EXPECT_GT(stops_seen[0], 0u);
  EXPECT_GT(stops_seen[4] + stops_seen[5] + stops_seen[6] + stops_seen[7] +
                stops_seen[8],
            5u);
}

struct GroupingFixture : public ::testing::Test {
  GroupingFixture() {
    CityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = 41;
    net = GenerateGridCity(opt);
    engine = std::make_unique<TravelCostEngine>(net);
    DeadlinePolicy policy;
    policy.gamma = 1.8;
    WorkloadOptions wopts;
    wopts.num_requests = 60;
    wopts.duration = 60;
    wopts.seed = 11;
    requests = GenerateWorkload(net, engine.get(), policy, wopts);
  }
  RoadNetwork net;
  std::unique_ptr<TravelCostEngine> engine;
  std::vector<Request> requests;
};

TEST_F(GroupingFixture, CheckScheduleEnforcesDeadlinesAndCapacity) {
  const Request& r = requests[0];
  RouteState state;
  state.start = r.source;
  state.start_time = r.release_time;
  state.capacity = 1;
  std::vector<Stop> ok = {PickupStop(r), DropoffStop(r)};
  auto [feasible, cost] = CheckSchedule(state, ok, engine.get());
  EXPECT_TRUE(feasible);
  EXPECT_NEAR(cost, r.direct_cost, 1e-9);

  // Starting after the latest pickup breaks the pickup deadline.
  state.start_time = r.latest_pickup + 1;
  EXPECT_FALSE(CheckSchedule(state, ok, engine.get()).first);

  // Zero-capacity vehicle cannot pick anyone up.
  state.start_time = r.release_time;
  state.capacity = 0;
  EXPECT_FALSE(CheckSchedule(state, ok, engine.get()).first);

  // The lower-bound walk is never more pessimistic than the real one.
  state.capacity = 1;
  auto [lb_ok, lb_cost] = CheckScheduleLowerBound(state, ok, engine.get());
  EXPECT_TRUE(lb_ok);
  EXPECT_LE(lb_cost, cost + 1e-9);
}

TEST_F(GroupingFixture, BestInsertionMatchesBruteForceOracleOnGrid) {
  ExpectInsertionMatchesOracle(net, engine.get(), requests, 7);
}

// The same oracle on the bundled DIMACS fixture, whose costs and
// coordinates come through the importer's admissibility rescale.
TEST(InsertionOracleTest, BestInsertionMatchesBruteForceOracleOnImportedGraph) {
  const std::string dir = STRUCTRIDE_TEST_DATA_DIR;
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  ASSERT_TRUE(ImportDimacs(dir + "/mini.gr", dir + "/mini.co", {}, &net,
                           &stats, &error))
      << error;
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.8;
  WorkloadOptions wopts;
  wopts.num_requests = 60;
  wopts.duration = 60;
  wopts.seed = 12;
  const std::vector<Request> requests =
      GenerateWorkload(net, &engine, policy, wopts);
  ExpectInsertionMatchesOracle(net, &engine, requests, 8);
}

// A request whose pickup no slot can reach even at straight-line distance
// is rejected by the lower-bound walk before any travel-cost lookup — on an
// idle vehicle, and on a loaded one priced from its committed legs.
TEST_F(GroupingFixture, UnreachableRequestCostsNoLookups) {
  Vehicle loaded(0, requests[0].source, 4);
  for (size_t k = 0; k < requests.size() && loaded.schedule().size() < 6;
       ++k) {
    TryInsertAndCommit(&loaded, requests[k], requests[k].release_time,
                       engine.get());
  }
  ASSERT_GE(loaded.schedule().size(), 4u);
  Vehicle idle(1, requests[1].destination, 4);

  for (const Vehicle* v : {&idle, &loaded}) {
    SCOPED_TRACE(v == &idle ? "idle" : "loaded");
    const RouteState state = v->route_state(requests[0].release_time);
    // Every slot's predecessor: the start, then each committed stop.
    std::vector<NodeId> slots = {state.start};
    for (const Stop& stop : v->schedule().stops()) slots.push_back(stop.node);
    // The node farthest, by straight line, from its nearest slot.
    NodeId far = 0;
    double far_gap = -1;
    for (NodeId node = 0; node < static_cast<NodeId>(net.num_nodes());
         ++node) {
      double gap = kInf;
      for (NodeId slot : slots) {
        gap = std::min(gap, engine->LowerBound(slot, node));
      }
      if (gap > far_gap) {
        far = node;
        far_gap = gap;
      }
    }
    ASSERT_GT(far_gap, 0);
    Request r;
    r.id = 1000;
    r.source = far;
    r.destination = requests[2].destination;
    r.release_time = state.start_time;
    r.direct_cost = engine->Cost(r.source, r.destination);
    // Half the straight-line gap: no slot reaches the pickup in time, yet
    // the vehicle is free before the pickup deadline.
    r.latest_pickup = state.start_time + 0.5 * far_gap;
    r.deadline = r.latest_pickup + r.direct_cost;

    const uint64_t lookups = engine->num_lookups();
    const InsertionCandidate cand = BestInsertion(
        state, v->schedule().stops(), v->legs(), r, engine.get());
    EXPECT_FALSE(cand.feasible);
    EXPECT_EQ(engine->num_lookups(), lookups);
    EXPECT_FALSE(
        ReferenceInsertion(state, v->schedule().stops(), r, engine.get())
            .feasible);
  }
}

TEST_F(GroupingFixture, KineticTreeNeverWorseThanLinearInsertion) {
  // Seed from pairs the shareability graph certifies as jointly serveable,
  // so the comparison is guaranteed to have material to work with.
  ShareGraphBuilderOptions bopts;
  ShareGraphBuilder builder(engine.get(), bopts);
  builder.AddRequests(requests);

  // A shareability edge certifies a joint order starting at one of the two
  // pickups; try both starts and require at least one to carry through.
  auto attempt = [&](const Request& first, const Request& second) {
    RouteState state;
    state.start = first.source;
    state.start_time = first.release_time;
    state.capacity = 4;

    KineticTree tree(state);
    if (!tree.Insert(first, engine.get()) ||
        !tree.Insert(second, engine.get())) {
      return false;
    }
    Schedule schedule;
    InsertionCandidate ins_a = BestInsertion(state, schedule, first, engine.get());
    EXPECT_TRUE(ins_a.feasible);
    if (!ins_a.feasible) return false;
    schedule = ApplyInsertion(schedule, first, ins_a);
    InsertionCandidate ins_b =
        BestInsertion(state, schedule, second, engine.get());
    // The tree's orders are a superset of linear insertion's, so linear must
    // succeed whenever the tree did from this start.
    EXPECT_TRUE(ins_b.feasible);
    if (!ins_b.feasible) return false;

    double optimal = tree.BestCost(engine.get());
    EXPECT_GT(tree.NumSchedules(), 0u);
    EXPECT_LE(optimal, ins_b.total_cost + 1e-6);
    return true;
  };

  int checked = 0;
  for (RequestId a : builder.graph().Nodes()) {
    if (checked >= 8) break;
    for (RequestId b : builder.graph().Neighbors(a)) {
      if (b <= a) continue;
      const Request& ra = builder.request(a);
      const Request& rb = builder.request(b);
      EXPECT_TRUE(attempt(ra, rb) || attempt(rb, ra))
          << "edge (" << a << "," << b << ") unusable from either start";
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_F(GroupingFixture, EnumeratedGroupsAreFeasibleCliques) {
  ShareGraphBuilderOptions bopts;
  bopts.vehicle_capacity = 3;
  ShareGraphBuilder builder(engine.get(), bopts);
  builder.AddRequests(requests);
  std::vector<const Request*> pool;
  for (const Request& r : requests) pool.push_back(&r);

  RouteState state;
  state.start = requests[0].source;
  state.start_time = 0;
  state.capacity = 3;
  GroupingOptions gopts;
  gopts.max_group_size = 3;
  GroupingScratch scratch;
  for (auto policy : {InsertionOrderPolicy::kByShareability,
                      InsertionOrderPolicy::kBestOfAllParents}) {
    gopts.insertion_order = policy;
    scratch.Reset();
    PooledGroupingResult res = EnumerateGroupsPooled(
        state, Span<const Stop>(nullptr, 0), {},
        Span<const Request* const>(pool.data(), pool.size()),
        &builder.graph(), engine.get(), gopts, &scratch);
    EXPECT_GT(res.count, 0u);
    for (size_t gi = 0; gi < res.count; ++gi) {
      const PooledGroup& g = scratch.groups[res.first_group + gi];
      Span<const RequestId> members = scratch.MembersOf(g);
      Span<const Stop> stops = scratch.ScheduleOf(g);
      EXPECT_LE(members.size(), 3u);
      EXPECT_EQ(stops.size(), 2 * members.size());
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          EXPECT_TRUE(builder.graph().HasEdge(members[i], members[j]));
        }
      }
      auto [ok, cost] = CheckSchedule(state, stops, engine.get());
      EXPECT_TRUE(ok);
      EXPECT_NEAR(cost, g.delta_cost, 1e-6);  // empty committed schedule
    }
  }
}

// The warmed steady-state reuse: a second enumeration after Reset runs on
// the retained scratch capacity and must reproduce the first pass exactly —
// group order, members, schedules, deltas (bitwise) and truncation.
TEST_F(GroupingFixture, ResetScratchReproducesTheFirstPass) {
  ShareGraphBuilderOptions bopts;
  bopts.vehicle_capacity = 3;
  ShareGraphBuilder builder(engine.get(), bopts);
  builder.AddRequests(requests);
  std::vector<const Request*> pool;
  for (const Request& r : requests) pool.push_back(&r);

  struct Pass {
    bool truncated = false;
    std::vector<std::vector<RequestId>> members;
    std::vector<std::vector<Stop>> stops;
    std::vector<double> deltas;
  };
  GroupingScratch scratch;
  Rng rng(23);
  for (auto policy : {InsertionOrderPolicy::kByShareability,
                      InsertionOrderPolicy::kBestOfAllParents}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Request& seed = requests[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(requests.size()) - 1))];
      RouteState state;
      state.start = seed.source;
      state.start_time = 0;
      state.capacity = 3;
      GroupingOptions gopts;
      gopts.max_group_size = 3;
      gopts.insertion_order = policy;
      Pass passes[2];
      for (Pass& pass : passes) {
        scratch.Reset();
        PooledGroupingResult res = EnumerateGroupsPooled(
            state, Span<const Stop>(nullptr, 0), {},
            Span<const Request* const>(pool.data(), pool.size()),
            &builder.graph(), engine.get(), gopts, &scratch);
        pass.truncated = res.truncated;
        for (size_t gi = 0; gi < res.count; ++gi) {
          const PooledGroup& g = scratch.groups[res.first_group + gi];
          Span<const RequestId> members = scratch.MembersOf(g);
          Span<const Stop> stops = scratch.ScheduleOf(g);
          pass.members.emplace_back(members.begin(), members.end());
          pass.stops.emplace_back(stops.begin(), stops.end());
          pass.deltas.push_back(g.delta_cost);
        }
      }
      EXPECT_GT(passes[0].members.size(), 0u);
      EXPECT_EQ(passes[1].truncated, passes[0].truncated);
      EXPECT_EQ(passes[1].members, passes[0].members);
      EXPECT_EQ(passes[1].deltas, passes[0].deltas);
      ASSERT_EQ(passes[1].stops.size(), passes[0].stops.size());
      for (size_t gi = 0; gi < passes[0].stops.size(); ++gi) {
        const std::vector<Stop>& a = passes[0].stops[gi];
        const std::vector<Stop>& b = passes[1].stops[gi];
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k].request, b[k].request);
          EXPECT_EQ(a[k].node, b[k].node);
          EXPECT_EQ(a[k].kind, b[k].kind);
          EXPECT_EQ(a[k].earliest, b[k].earliest);
          EXPECT_EQ(a[k].deadline, b[k].deadline);
        }
      }
    }
  }
}

TEST_F(GroupingFixture, TryInsertAndCommitUpdatesVehicle) {
  Vehicle vehicle(0, requests[0].source, 4);
  double delta =
      TryInsertAndCommit(&vehicle, requests[0], /*now=*/0, engine.get());
  ASSERT_LT(delta, std::numeric_limits<double>::infinity());
  EXPECT_EQ(vehicle.schedule().size(), 2u);
  vehicle.AdvanceTo(std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_TRUE(vehicle.idle());
  EXPECT_NEAR(vehicle.total_travel_cost(), requests[0].direct_cost, 1e-9);
}

}  // namespace
}  // namespace structride
