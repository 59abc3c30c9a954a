// ShareGraph structure operations; the load-bearing property of the
// builder's free pair screens (straight-line walk, then landmark walk): they
// must never drop a feasible share pair — the screened graph must equal the
// one exact checking of every joint order would build (the screens only
// save shortest-path queries); and the incremental builder's contracts: one
// exact check per pair lifetime and from-scratch equivalence after every
// delta.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "roadnet/generator.h"
#include "roadnet/importer.h"
#include "sharegraph/analysis.h"
#include "sharegraph/builder.h"
#include "sharegraph/loss.h"
#include "sim/workload.h"
#include "util/random.h"

namespace structride {
namespace {

// The three walks of each joint stop order of a pair, rebuilt independently
// of the builder: the four orders in which the rides overlap (both pickups
// before both dropoffs), each walked from the leading rider's pickup at its
// release time with two seats.
struct JointOrderWalks {
  bool exact[4];
  bool lower_bound[4];
  bool landmark[4];

  /// Some order passes both bound walks: the builder exact-checks the pair.
  bool Screened() const {
    for (int k = 0; k < 4; ++k) {
      if (lower_bound[k] && landmark[k]) return true;
    }
    return false;
  }
};

JointOrderWalks WalkJointOrders(const Request& a, const Request& b,
                                TravelCostEngine* engine) {
  const Stop pa = PickupStop(a), pb = PickupStop(b);
  const Stop da = DropoffStop(a), db = DropoffStop(b);
  const std::vector<Stop> orders[4] = {
      {pa, pb, da, db}, {pa, pb, db, da}, {pb, pa, da, db}, {pb, pa, db, da}};
  JointOrderWalks walks;
  for (int k = 0; k < 4; ++k) {
    const Request& lead = k < 2 ? a : b;
    RouteState state;
    state.start = lead.source;
    state.start_time = lead.release_time;
    state.capacity = 2;
    walks.exact[k] = CheckSchedule(state, orders[k], engine).first;
    walks.lower_bound[k] =
        CheckScheduleLowerBound(state, orders[k], engine).first;
    walks.landmark[k] =
        CheckScheduleLandmarkBound(state, orders[k], engine).first;
  }
  return walks;
}

bool TimeOverlapping(const Request& a, const Request& b) {
  return a.release_time <= b.deadline && b.release_time <= a.deadline;
}

TEST(ShareGraphTest, BasicOperations) {
  ShareGraph g;
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // duplicate ignored
  g.AddEdge(2, 2);  // self-loop ignored
  g.AddEdge(2, 3);  // implicit node
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_EQ(g.Degree(2), 2u);
  g.RemoveNode(2);
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(1), 0u);
}

TEST(ShareGraphTest, SupernodeKeepsCommonNeighbors) {
  // 1-2 share neighbors {3}, while 4 neighbors only 1.
  ShareGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  EXPECT_DOUBLE_EQ(ShareabilityLoss(g, {1, 2}), 1.0);  // loses 4, keeps 3
  g.SubstituteSupernode({1, 2}, 100);
  EXPECT_TRUE(g.HasNode(100));
  EXPECT_FALSE(g.HasNode(1));
  EXPECT_FALSE(g.HasNode(2));
  EXPECT_TRUE(g.HasEdge(100, 3));
  EXPECT_FALSE(g.HasEdge(100, 4));
}

TEST(ShareGraphTest, AnalysisOnKnownGraph) {
  // A triangle plus a pendant and an isolated node.
  ShareGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddNode(9);
  StructureReport report = AnalyzeStructure(g, 3);
  EXPECT_EQ(report.degrees.num_nodes, 5u);
  EXPECT_EQ(report.degrees.num_edges, 4u);
  EXPECT_EQ(report.degeneracy, 2);
  EXPECT_EQ(report.max_clique, 3u);
  EXPECT_EQ(report.num_components, 2u);
  // Partition: {0,1,2} triangle, {3}, {9} at capacity 3.
  EXPECT_EQ(report.greedy_partition_cliques, 3u);
  EXPECT_GE(report.partition_upper_bound, report.greedy_partition_cliques - 1);
  auto cliques = GreedyCliquePartition(g, 3);
  size_t covered = 0;
  for (const auto& clique : cliques) {
    covered += clique.size();
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(clique[i], clique[j]));
      }
    }
  }
  EXPECT_EQ(covered, g.NumNodes());
}

// Screen losslessness on a seeded workload over \p net: every
// time-overlapping pair's edge equals the unscreened reference (any joint
// order feasible under the exact walk), every order either bound walk
// rejects also fails the exact walk, and each overlapping pair was either
// pruned by the screens or exact-checked — with both stages firing: the
// straight-line walk rejects orders, and the landmark walk prunes pairs
// the straight-line walk alone would have kept.
void ExpectScreenLossless(const RoadNetwork& net, uint64_t seed) {
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.5;
  WorkloadOptions wopts;
  wopts.num_requests = 90;
  wopts.duration = 120;
  wopts.seed = seed;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  ShareGraphBuilder builder(&engine, {});
  builder.AddRequests(requests);
  EXPECT_GT(builder.pruned_pairs(), 0u);

  uint64_t overlapping = 0, screened_orders = 0;
  uint64_t unscreened_pairs = 0, landmark_pruned_pairs = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    for (size_t j = i + 1; j < requests.size(); ++j) {
      const Request& a = requests[i];
      const Request& b = requests[j];
      const bool edge = builder.graph().HasEdge(a.id, b.id);
      if (!TimeOverlapping(a, b)) {
        EXPECT_FALSE(edge) << "pair " << a.id << "," << b.id;
        continue;
      }
      ++overlapping;
      const JointOrderWalks walks = WalkJointOrders(a, b, &engine);
      bool reference = false;
      for (int k = 0; k < 4; ++k) {
        reference = reference || walks.exact[k];
        if (!walks.lower_bound[k]) {
          ++screened_orders;
          EXPECT_FALSE(walks.exact[k])
              << "straight-line walk rejected feasible order " << k
              << " of pair " << a.id << "," << b.id;
        }
        if (!walks.landmark[k]) {
          EXPECT_FALSE(walks.exact[k])
              << "landmark walk rejected feasible order " << k << " of pair "
              << a.id << "," << b.id;
        }
      }
      EXPECT_EQ(edge, reference) << "pair " << a.id << "," << b.id;
      if (!walks.Screened()) {
        ++unscreened_pairs;
        const bool straight_line_kept =
            std::count(walks.lower_bound, walks.lower_bound + 4, true) > 0;
        landmark_pruned_pairs += straight_line_kept;
      }
    }
  }
  EXPECT_GT(screened_orders, 0u);
  EXPECT_GT(landmark_pruned_pairs, 0u);
  EXPECT_EQ(builder.pruned_pairs(), unscreened_pairs);
  EXPECT_EQ(builder.pair_checks() + builder.pruned_pairs(), overlapping);
}

TEST(ShareGraphBuilderTest, LowerBoundScreenIsLosslessOnGridCities) {
  for (uint64_t seed : {uint64_t{21}, uint64_t{22}, uint64_t{23}}) {
    SCOPED_TRACE("city seed " + std::to_string(seed));
    CityOptions copt;
    copt.rows = 15;
    copt.cols = 15;
    copt.seed = seed;
    ExpectScreenLossless(GenerateGridCity(copt), seed + 100);
  }
}

// The same differential on the bundled DIMACS fixture, whose integer costs
// and coordinates come from files through the importer rather than from
// the grid generator.
TEST(ShareGraphBuilderTest, LowerBoundScreenIsLosslessOnImportedGraph) {
  const std::string dir = STRUCTRIDE_TEST_DATA_DIR;
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  ASSERT_TRUE(ImportDimacs(dir + "/mini.gr", dir + "/mini.co", {}, &net,
                           &stats, &error))
      << error;
  for (uint64_t seed : {uint64_t{4}, uint64_t{5}}) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    ExpectScreenLossless(net, seed);
  }
}

TEST(ShareGraphTest, RemovalPreservesInsertionOrderAndReaddAppends) {
  ShareGraph g;
  for (RequestId id : {5, 3, 9, 1, 7}) g.AddNode(id);
  g.AddEdge(5, 9);
  g.AddEdge(3, 9);
  g.AddEdge(9, 7);
  g.RemoveNode(9);  // tombstoned slot, edges gone in O(degree)
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{5, 3, 1, 7}));
  g.AddNode(9);  // re-add lands at the end of the insertion order
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{5, 3, 1, 7, 9}));
  // A removal burst exceeding half the order vector compacts eagerly even
  // when no one reads Nodes() in between.
  g.RemoveNode(5);
  g.RemoveNode(3);
  g.RemoveNode(1);
  g.AddNode(11);
  EXPECT_EQ(g.Nodes(), (std::vector<RequestId>{7, 9, 11}));
}

// The lifetime invariant (DESIGN.md §7): a pair is exact-checked once per
// pair lifetime. Re-presenting a live pair through AddRequests costs neither
// a check nor a shortest-path query; removing one side ends the lifetime, so
// re-adding it costs exactly one more check (same immutable request data,
// hence the same edge verdict).
TEST(ShareGraphBuilderTest, LivePairIsCheckedOncePerLifetime) {
  CityOptions copt;
  copt.rows = 10;
  copt.cols = 10;
  copt.seed = 17;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  WorkloadOptions wopts;
  wopts.num_requests = 20;
  wopts.duration = 60;
  wopts.seed = 5;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  // A pair that survives the temporal screen and both bound walks, so
  // adding it costs exactly one exact check.
  const Request* a = nullptr;
  const Request* b = nullptr;
  for (size_t i = 0; i < requests.size() && a == nullptr; ++i) {
    for (size_t j = i + 1; j < requests.size(); ++j) {
      if (!TimeOverlapping(requests[i], requests[j])) continue;
      if (WalkJointOrders(requests[i], requests[j], &engine).Screened()) {
        a = &requests[i];
        b = &requests[j];
        break;
      }
    }
  }
  ASSERT_NE(a, nullptr);

  ShareGraphBuilder builder(&engine, {});
  builder.AddRequests(std::vector<Request>{*a, *b});
  EXPECT_EQ(builder.pair_checks(), 1u);
  EXPECT_EQ(builder.pruned_pairs(), 0u);
  const bool edge = builder.graph().HasEdge(a->id, b->id);

  // Re-presenting the live pair (in either order) is free.
  const uint64_t queries_before = engine.num_queries();
  builder.AddRequests(std::vector<Request>{*b, *a});
  EXPECT_EQ(builder.pair_checks(), 1u);
  EXPECT_EQ(builder.pruned_pairs(), 0u);
  EXPECT_EQ(engine.num_queries(), queries_before);
  EXPECT_EQ(builder.graph().Nodes(), (std::vector<RequestId>{a->id, b->id}));

  // Removal ends b's lifetime; re-adding re-evaluates the pair.
  EXPECT_TRUE(builder.RemoveRequest(b->id));
  EXPECT_FALSE(builder.graph().HasNode(b->id));
  builder.AddRequests(std::vector<Request>{*b});
  EXPECT_EQ(builder.pair_checks(), 2u);
  EXPECT_EQ(builder.graph().HasEdge(a->id, b->id), edge);
}

// The differential harness pinning incremental maintenance (DESIGN.md §7):
// drive seeded random release / retire / sync sequences through the
// incremental builder — releases also re-present live requests, and re-adds
// of retired ones are included — and after EVERY step require:
//  - equivalence with a from-scratch rebuild over the surviving requests, in
//    the incremental builder's insertion order (exactly what the rebuild
//    reference does): node sequence, edge count and each node's full
//    neighbor SEQUENCE. The graph is unweighted, so adjacency order is the
//    strictest per-edge invariant there is — it is what makes dispatcher
//    results independent of how the graph was maintained;
//  - the lifetime invariant: one exact check or free-screen prune per
//    co-present, time-overlapping pair lifetime, so re-presentations and
//    surviving pairs cost nothing.
TEST(ShareGraphBuilderTest, DifferentialIncrementalVsFromScratchRebuild) {
  CityOptions copt;
  copt.rows = 12;
  copt.cols = 12;
  copt.seed = 41;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.5;
  WorkloadOptions wopts;
  wopts.num_requests = 80;
  wopts.duration = 120;
  wopts.seed = 12;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : requests) by_id[r.id] = &r;

  for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ShareGraphBuilder inc(&engine, {});
    std::vector<char> alive(requests.size(), 0);
    uint64_t lifetimes = 0;
    uint64_t rebuild_checks_total = 0;
    // Marks requests[idx] present, opening one pair lifetime with every
    // present request its ride overlaps in time.
    auto open = [&](size_t idx) {
      for (size_t j = 0; j < requests.size(); ++j) {
        if (alive[j] && TimeOverlapping(requests[idx], requests[j])) {
          ++lifetimes;
        }
      }
      alive[idx] = 1;
    };
    auto random_index = [&] {
      return static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(requests.size()) - 1));
    };

    for (int step = 0; step < 25; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 2));
      if (op == 0 || inc.num_requests() == 0) {
        // Release a batch: fresh requests, re-adds of retired ones, and
        // re-presentations of live ones (skipped by AddRequests).
        std::vector<Request> batch;
        const int k = static_cast<int>(rng.UniformInt(1, 8));
        for (int t = 0; t < k; ++t) {
          const size_t idx = random_index();
          if (!alive[idx]) open(idx);
          batch.push_back(requests[idx]);
        }
        inc.AddRequests(batch);
      } else if (op == 1) {
        // Assignment / cancellation / expiry events: retire a few.
        for (size_t idx = 0; idx < requests.size(); ++idx) {
          if (alive[idx] && rng.Uniform(0, 1) < 0.3) {
            alive[idx] = 0;
            EXPECT_TRUE(inc.RemoveRequest(requests[idx].id));
          }
        }
      } else {
        // A dispatch-round sync: keep a random subset of the open pool and
        // fold in a few requests that were not open before the round.
        std::vector<size_t> fresh;
        const int k = static_cast<int>(rng.UniformInt(0, 3));
        for (int t = 0; t < k; ++t) {
          const size_t idx = random_index();
          if (!alive[idx] &&
              std::find(fresh.begin(), fresh.end(), idx) == fresh.end()) {
            fresh.push_back(idx);
          }
        }
        std::vector<const Request*> pending;
        for (size_t idx = 0; idx < requests.size(); ++idx) {
          if (!alive[idx]) continue;
          if (rng.Uniform(0, 1) < 0.7) {
            pending.push_back(&requests[idx]);
          } else {
            alive[idx] = 0;
          }
        }
        for (size_t idx : fresh) {
          open(idx);
          pending.push_back(&requests[idx]);
        }
        inc.SyncToPending(pending);
      }

      // From-scratch reference over the survivors, in the incremental
      // builder's insertion order.
      std::vector<Request> survivors;
      for (RequestId id : inc.graph().Nodes()) {
        survivors.push_back(*by_id.at(id));
      }
      ShareGraphBuilder ref(&engine, {});
      ref.AddRequests(survivors);
      rebuild_checks_total += ref.pair_checks();

      ASSERT_EQ(inc.graph().NumNodes(), ref.graph().NumNodes())
          << "step " << step;
      ASSERT_EQ(inc.graph().NumEdges(), ref.graph().NumEdges())
          << "step " << step;
      ASSERT_EQ(inc.graph().Nodes(), ref.graph().Nodes()) << "step " << step;
      for (RequestId v : ref.graph().Nodes()) {
        ASSERT_EQ(inc.graph().Neighbors(v), ref.graph().Neighbors(v))
            << "neighbor sequence mismatch at request " << v << ", step "
            << step;
      }
      ASSERT_EQ(inc.pair_checks() + inc.pruned_pairs(), lifetimes)
          << "step " << step;
    }
    // The economics of maintenance: across the whole sequence the
    // incremental builder spent strictly fewer exact checks than the
    // rebuild-after-every-step discipline it replaces.
    EXPECT_LT(inc.pair_checks(), rebuild_checks_total);
  }
}

TEST(ShareGraphBuilderTest, IncrementalAddRequestsMatchesOneShot) {
  CityOptions copt;
  copt.rows = 10;
  copt.cols = 10;
  copt.seed = 31;
  RoadNetwork net = GenerateGridCity(copt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  WorkloadOptions wopts;
  wopts.num_requests = 60;
  wopts.duration = 90;
  wopts.seed = 8;
  auto requests = GenerateWorkload(net, &engine, policy, wopts);

  ShareGraphBuilderOptions opts;
  ShareGraphBuilder one_shot(&engine, opts);
  one_shot.AddRequests(requests);

  ShareGraphBuilder incremental(&engine, opts);
  std::vector<Request> first(requests.begin(), requests.begin() + 40);
  std::vector<Request> second(requests.begin() + 40, requests.end());
  incremental.AddRequests(first);
  incremental.AddRequests(second);

  EXPECT_EQ(one_shot.graph().NumEdges(), incremental.graph().NumEdges());
}

}  // namespace
}  // namespace structride
