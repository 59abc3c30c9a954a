// Scheduling primitives: CheckSchedule semantics, BestInsertion optimality
// (pruned == exhaustive, and matches the kinetic-tree optimum for the cases
// where linear insertion is exact), and the grouping enumerator's clique /
// capacity invariants and warm-scratch reuse.

#include <gtest/gtest.h>

#include <limits>

#include "core/insertion.h"
#include "core/kinetic_tree.h"
#include "group/grouping.h"
#include "roadnet/generator.h"
#include "sharegraph/builder.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

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

TEST_F(GroupingFixture, PrunedInsertionMatchesExhaustive) {
  RouteState state;
  state.start = requests[0].source;
  state.start_time = 0;
  state.capacity = 6;
  Schedule schedule;
  int compared = 0;
  for (size_t i = 0; i + 1 < 12; ++i) {
    const Request& r = requests[i];
    InsertionOptions pruned{true};
    InsertionOptions exhaustive{false};
    InsertionCandidate a = BestInsertion(state, schedule, r, engine.get(), pruned);
    InsertionCandidate b =
        BestInsertion(state, schedule, r, engine.get(), exhaustive);
    EXPECT_EQ(a.feasible, b.feasible);
    if (a.feasible) {
      EXPECT_NEAR(a.delta_cost, b.delta_cost, 1e-9);
      schedule = ApplyInsertion(schedule, r, a);
      ++compared;
    }
  }
  EXPECT_GT(compared, 2);
}

TEST_F(GroupingFixture, KineticTreeNeverWorseThanLinearInsertion) {
  // Seed from pairs the shareability graph certifies as jointly serveable,
  // so the comparison is guaranteed to have material to work with.
  ShareGraphBuilderOptions bopts;
  ShareGraphBuilder builder(engine.get(), bopts);
  builder.AddBatch(requests);

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
  builder.AddBatch(requests);
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
        state, Span<const Stop>(nullptr, 0),
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
  builder.AddBatch(requests);
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
            state, Span<const Stop>(nullptr, 0),
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
