// Shortest-path substrate: every backend must agree with plain Dijkstra on
// a small grid, the cached engine must count queries as misses only, and
// the landmark lower bound must never exceed any backend's cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roadnet/astar.h"
#include "roadnet/contraction_hierarchies.h"
#include "roadnet/dijkstra.h"
#include "roadnet/flat_lru.h"
#include "roadnet/generator.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/importer.h"
#include "roadnet/travel_cost.h"
#include "sim/datasets.h"
#include "util/random.h"

namespace structride {
namespace {

const RoadNetwork& Net() {
  static RoadNetwork net = [] {
    CityOptions opt;
    opt.rows = 9;
    opt.cols = 9;
    opt.seed = 13;
    return GenerateGridCity(opt);
  }();
  return net;
}

TEST(RoadnetTest, GeneratorShape) {
  const RoadNetwork& net = Net();
  EXPECT_EQ(net.num_nodes(), 81u);
  EXPECT_GE(net.num_edges(), 2u * 8u * 9u);  // full grid at minimum
}

TEST(RoadnetTest, EdgeCostsDominateEuclid) {
  const RoadNetwork& net = Net();
  for (size_t v = 0; v < net.num_nodes(); ++v) {
    for (const RoadNetwork::Arc& arc : net.arcs(static_cast<NodeId>(v))) {
      EXPECT_GE(arc.cost,
                net.EuclidLowerBound(static_cast<NodeId>(v), arc.to) - 1e-9);
    }
  }
}

TEST(RoadnetTest, AllBackendsMatchDijkstra) {
  const RoadNetwork& net = Net();
  HubLabeling hl(net);
  ContractionHierarchies ch(net);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    NodeId s = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    NodeId t = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    std::vector<double> ref = DijkstraAll(net, s);
    double expected = ref[static_cast<size_t>(t)];
    EXPECT_NEAR(BidirectionalDijkstra(net, s, t), expected, 1e-6);
    EXPECT_NEAR(AStarCost(net, s, t), expected, 1e-6);
    EXPECT_NEAR(hl.Query(s, t), expected, 1e-6);
    EXPECT_NEAR(ch.Query(s, t), expected, 1e-6);
    EXPECT_LE(net.EuclidLowerBound(s, t), expected + 1e-9);
  }
}

TEST(RoadnetTest, EngineBackendsMatchAndCacheCountsMisses) {
  const RoadNetwork& net = Net();
  std::vector<double> ref = DijkstraAll(net, 0);

  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kContractionHierarchies,
                       TravelCostOptions::Backend::kBidirectionalDijkstra}) {
    TravelCostOptions options;
    options.backend = backend;
    TravelCostEngine engine(net, options);
    for (NodeId t : {NodeId{5}, NodeId{40}, NodeId{80}}) {
      EXPECT_NEAR(engine.Cost(0, t), ref[static_cast<size_t>(t)], 1e-6);
    }
    uint64_t misses = engine.num_queries();
    EXPECT_EQ(misses, 3u);
    // Re-asking the same pairs must be pure cache hits.
    for (NodeId t : {NodeId{5}, NodeId{40}, NodeId{80}}) {
      EXPECT_NEAR(engine.Cost(0, t), ref[static_cast<size_t>(t)], 1e-6);
    }
    EXPECT_EQ(engine.num_queries(), misses);
    EXPECT_GT(engine.CacheHitRate(), 0.0);
  }
}

// Regression for the directed-key cache bug: the network is undirected, so
// Cost(s, t) followed by Cost(t, s) must hit one canonical cache slot and
// perform exactly one backend query.
TEST(RoadnetTest, SymmetricPairSharesOneCacheSlot) {
  TravelCostEngine engine(Net());
  double st = engine.Cost(3, 77);
  EXPECT_EQ(engine.num_queries(), 1u);
  double ts = engine.Cost(77, 3);
  EXPECT_EQ(engine.num_queries(), 1u);
  EXPECT_DOUBLE_EQ(st, ts);
  EXPECT_EQ(engine.num_lookups(), 2u);
}

// Regression for the double-counted-miss bug: N threads hammering the same
// cold pairs (both directions) must insert — and therefore count — each
// canonical pair exactly once, so Tables V/VI savings cannot depend on
// thread count.
TEST(RoadnetTest, ConcurrentColdMissesCountEachPairOnce) {
  const RoadNetwork& net = Net();
  TravelCostOptions options;
  options.backend = TravelCostOptions::Backend::kBidirectionalDijkstra;
  TravelCostEngine engine(net, options);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  for (NodeId s = 0; s < 20; ++s) {
    pairs.emplace_back(s, static_cast<NodeId>(n - 1 - s));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [s, d] : pairs) {
          engine.Cost(s, d);
          engine.Cost(d, s);  // the flipped direction is the same pair
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.num_queries(), pairs.size());
  EXPECT_EQ(engine.num_lookups(),
            static_cast<uint64_t>(kThreads) * kRounds * 2 * pairs.size());
  // Values must match single-threaded ground truth.
  for (const auto& [s, d] : pairs) {
    EXPECT_NEAR(engine.Cost(s, d), BidirectionalDijkstra(net, s, d), 1e-9);
  }
}

// Cache partitions (DESIGN.md §12): a partition shares the parent's frozen
// backend but owns a private LRU and counters; the parent aggregates its
// own traffic plus every partition's, live or destroyed.
TEST(RoadnetTest, CachePartitionsIsolateLruAndAggregateCounters) {
  const RoadNetwork& net = Net();
  TravelCostEngine root(net);
  const double ref = root.Cost(0, 50);
  EXPECT_EQ(root.num_queries(), 1u);
  {
    auto a = root.MakeCachePartition(/*capacity=*/64, /*stripes=*/4);
    auto b = root.MakeCachePartition(/*capacity=*/64, /*stripes=*/4);
    EXPECT_TRUE(a->is_partition());
    EXPECT_FALSE(root.is_partition());
    // Cold in each partition even though hot in the root: private LRUs,
    // one backend computation per partition.
    EXPECT_DOUBLE_EQ(a->Cost(0, 50), ref);
    EXPECT_DOUBLE_EQ(b->Cost(0, 50), ref);
    // The flipped direction is the canonical pair: a pure hit.
    EXPECT_DOUBLE_EQ(a->Cost(50, 0), ref);
    EXPECT_EQ(a->num_queries(), 1u);
    EXPECT_EQ(b->num_queries(), 1u);
    EXPECT_EQ(a->num_lookups(), 2u);
    EXPECT_EQ(b->num_lookups(), 1u);
    // The parent reports the aggregate over itself and live partitions.
    EXPECT_EQ(root.num_queries(), 3u);
    EXPECT_EQ(root.num_lookups(), 4u);
  }
  // Dying partitions fold their counts into the parent: the process-wide
  // totals are unaffected by partition lifetimes.
  EXPECT_EQ(root.num_queries(), 3u);
  EXPECT_EQ(root.num_lookups(), 4u);
}

TEST(RoadnetTest, SelfCostIsZeroAndFree) {
  TravelCostEngine engine(Net());
  uint64_t before = engine.num_queries();
  EXPECT_DOUBLE_EQ(engine.Cost(7, 7), 0);
  EXPECT_EQ(engine.num_queries(), before);
}

// The frozen CSR view must expose exactly the arcs AddEdge recorded, per
// node, in insertion order — so pre-freeze and post-freeze traversals are
// the same sequence.
TEST(RoadnetTest, CsrFreezePreservesArcOrder) {
  RoadNetwork net;
  NodeId a = net.AddNode({0, 0});
  NodeId b = net.AddNode({1, 0});
  NodeId c = net.AddNode({0, 1});
  net.AddEdge(a, b, 1.5);
  net.AddEdge(a, c, 2.0);
  net.AddEdge(b, c, 2.5);
  EXPECT_FALSE(net.frozen());
  RoadNetwork::ArcSpan arcs_a = net.arcs(a);  // lazy freeze
  EXPECT_TRUE(net.frozen());
  ASSERT_EQ(arcs_a.size(), 2u);
  EXPECT_EQ(arcs_a[0].to, b);
  EXPECT_DOUBLE_EQ(arcs_a[0].cost, 1.5);
  EXPECT_EQ(arcs_a[1].to, c);
  EXPECT_DOUBLE_EQ(arcs_a[1].cost, 2.0);
  RoadNetwork::ArcSpan arcs_c = net.arcs(c);
  ASSERT_EQ(arcs_c.size(), 2u);
  EXPECT_EQ(arcs_c[0].to, a);
  EXPECT_EQ(arcs_c[1].to, b);
  EXPECT_EQ(net.num_edges(), 3u);
  EXPECT_GT(net.MemoryBytes(), 0u);
}

// Randomized equivalence over generator layouts: every backend over the
// frozen CSR must agree with plain Dijkstra ground truth.
TEST(RoadnetTest, RandomGridBackendEquivalence) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    CityOptions opt;
    opt.rows = 7;
    opt.cols = 8;
    opt.seed = seed;
    opt.diagonal_prob = 0.3;
    RoadNetwork net = GenerateGridCity(opt);
    EXPECT_TRUE(net.frozen());
    HubLabeling hl(net);
    ContractionHierarchies ch(net);
    Rng rng(seed);
    for (int trial = 0; trial < 25; ++trial) {
      NodeId s = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
      NodeId t = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
      std::vector<double> ref = DijkstraAll(net, s);
      double expected = ref[static_cast<size_t>(t)];
      EXPECT_NEAR(BidirectionalDijkstra(net, s, t), expected, 1e-6);
      EXPECT_NEAR(AStarCost(net, s, t), expected, 1e-6);
      EXPECT_NEAR(hl.Query(s, t), expected, 1e-6);
      EXPECT_NEAR(ch.Query(s, t), expected, 1e-6);
    }
  }
}

// Two islands with no connecting edge. Island A (nodes 0-3) is a 2x2 block
// at the origin; island B (nodes 4-7) is the same block far away.
RoadNetwork TwoIslands() {
  RoadNetwork net;
  for (double off : {0.0, 50.0}) {
    NodeId base = net.AddNode({off, off});
    net.AddNode({off + 1, off});
    net.AddNode({off, off + 1});
    net.AddNode({off + 1, off + 1});
    net.AddEdge(base, base + 1, 1.2);
    net.AddEdge(base, base + 2, 1.1);
    net.AddEdge(base + 1, base + 3, 1.3);
    net.AddEdge(base + 2, base + 3, 1.4);
  }
  return net;
}

// Cross-island costs must be infinite from every backend; intra-island
// costs must still match Dijkstra.
TEST(RoadnetTest, DisconnectedComponentsReportInfinity) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RoadNetwork net = TwoIslands();
  HubLabeling hl(net);
  ContractionHierarchies ch(net);
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 4; t < 8; ++t) {
      EXPECT_EQ(hl.Query(s, t), kInf);
      EXPECT_EQ(ch.Query(s, t), kInf);
      EXPECT_EQ(BidirectionalDijkstra(net, s, t), kInf);
      EXPECT_EQ(AStarCost(net, s, t), kInf);
    }
  }
  for (NodeId s = 0; s < 8; ++s) {
    std::vector<double> ref = DijkstraAll(net, s);
    for (NodeId t = 0; t < 8; ++t) {
      double expected = ref[static_cast<size_t>(t)];
      if (expected == kInf) {
        EXPECT_EQ(hl.Query(s, t), kInf);
      } else {
        EXPECT_NEAR(hl.Query(s, t), expected, 1e-9);
        EXPECT_NEAR(ch.Query(s, t), expected, 1e-9);
      }
    }
  }
  // CostMany across components: infinities propagate, queries still count.
  TravelCostEngine engine(net);
  std::vector<NodeId> targets = {4, 5, 0, 6};
  std::vector<double> out(targets.size());
  engine.CostMany(0, {targets.data(), targets.size()}, out.data());
  EXPECT_EQ(out[0], kInf);
  EXPECT_EQ(out[1], kInf);
  EXPECT_DOUBLE_EQ(out[2], 0);
  EXPECT_EQ(out[3], kInf);
  EXPECT_EQ(engine.num_queries(), 3u);
}

// The landmark bound against each engine backend over every ordered node
// pair of \p net: LandmarkLowerBound(s, t) <= Cost(s, t) exactly, with no
// tolerance (the share-graph screen's losslessness rests on it); 0 on the
// diagonal; never NaN, also across components. It must also carry
// information: on some pair it beats the straight-line bound.
void ExpectLandmarkBoundAdmissible(const RoadNetwork& net) {
  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kContractionHierarchies,
                       TravelCostOptions::Backend::kBidirectionalDijkstra}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    TravelCostOptions options;
    options.backend = backend;
    TravelCostEngine engine(net, options);
    const NodeId n = static_cast<NodeId>(net.num_nodes());
    uint64_t violations = 0, tighter = 0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        const double bound = engine.LandmarkLowerBound(s, t);
        const double cost = engine.Cost(s, t);
        const bool ok = !std::isnan(bound) && bound >= 0 && bound <= cost &&
                        (s != t || bound == 0);
        if (!ok && violations++ == 0) {
          ADD_FAILURE() << "pair " << s << "," << t << ": bound " << bound
                        << ", cost " << cost;
        }
        tighter += bound > engine.LowerBound(s, t);
      }
    }
    EXPECT_EQ(violations, 0u);
    EXPECT_GT(tighter, 0u);
  }
}

TEST(RoadnetTest, LandmarkBoundNeverExceedsAnyBackendOnGrids) {
  ExpectLandmarkBoundAdmissible(Net());
  for (uint64_t seed : {uint64_t{21}, uint64_t{22}, uint64_t{23}}) {
    SCOPED_TRACE("city seed " + std::to_string(seed));
    CityOptions opt;
    opt.rows = 15;
    opt.cols = 15;
    opt.seed = seed;
    ExpectLandmarkBoundAdmissible(GenerateGridCity(opt));
  }
}

TEST(RoadnetTest, LandmarkBoundNeverExceedsAnyBackendOnImportedGraph) {
  const std::string dir = STRUCTRIDE_TEST_DATA_DIR;
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  ASSERT_TRUE(ImportDimacs(dir + "/mini.gr", dir + "/mini.co", {}, &net,
                           &stats, &error))
      << error;
  ExpectLandmarkBoundAdmissible(net);
}

// Farthest-point selection gives each island a landmark; a pair across
// islands gets no information from either (one side is unreachable), so
// its bound is 0 rather than NaN or infinity.
TEST(RoadnetTest, LandmarkBoundAcrossComponentsIsZero) {
  RoadNetwork net = TwoIslands();
  ExpectLandmarkBoundAdmissible(net);
  TravelCostEngine engine(net);
  const std::vector<NodeId>& landmarks = engine.landmark_table().landmarks();
  ASSERT_EQ(landmarks.size(), LandmarkTable::kLandmarks);
  EXPECT_EQ(landmarks[0], 0);
  EXPECT_EQ(landmarks[1], 4);  // the first node no landmark reaches
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 4; t < 8; ++t) {
      EXPECT_EQ(engine.LandmarkLowerBound(s, t), 0);
      EXPECT_EQ(engine.LandmarkLowerBound(t, s), 0);
    }
  }
}

// Partitions borrow the root's table; the root charges it once.
TEST(RoadnetTest, CachePartitionsBorrowTheLandmarkTable) {
  TravelCostEngine root(Net());
  auto part = root.MakeCachePartition(/*capacity=*/64, /*stripes=*/4);
  EXPECT_EQ(&part->landmark_table(), &root.landmark_table());
  EXPECT_EQ(root.landmark_table().distances().size(),
            Net().num_nodes() * LandmarkTable::kLandmarks);
  EXPECT_GE(root.MemoryBytes(),
            root.landmark_table().MemoryBytes() + part->MemoryBytes());
}

// CostMany must be per-target equivalent to the point-to-point path:
// bitwise-identical results and identical num_queries()/num_lookups(), for
// every backend, including duplicate and self targets.
TEST(RoadnetTest, CostManyMatchesRepeatedCost) {
  const RoadNetwork& net = Net();
  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kContractionHierarchies,
                       TravelCostOptions::Backend::kBidirectionalDijkstra}) {
    TravelCostOptions options;
    options.backend = backend;
    TravelCostEngine seq(net, options);
    TravelCostEngine batch(net, options);

    const NodeId source = 12;
    Rng rng(17);
    std::vector<NodeId> targets;
    for (int i = 0; i < 40; ++i) {
      targets.push_back(static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1)));
    }
    targets.push_back(source);      // self target: free, uncounted query
    targets.push_back(targets[0]);  // duplicate: second hit, one count
    targets.push_back(targets[5]);

    std::vector<double> expected;
    for (NodeId t : targets) expected.push_back(seq.Cost(source, t));
    std::vector<double> got(targets.size());
    batch.CostMany(source, {targets.data(), targets.size()}, got.data());
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "target " << i;
    }
    EXPECT_EQ(batch.num_queries(), seq.num_queries());
    EXPECT_EQ(batch.num_lookups(), seq.num_lookups());

    // Second pass is all hits on both paths.
    for (NodeId t : targets) seq.Cost(source, t);
    batch.CostMany(source, {targets.data(), targets.size()}, got.data());
    EXPECT_EQ(batch.num_queries(), seq.num_queries());
    EXPECT_EQ(batch.num_lookups(), seq.num_lookups());
  }
}

// Reference hub-label query: the two-pointer merge join over two
// sentinel-terminated runs of the labeling's own planes.
double MergeJoinQuery(const HubLabeling& hl, NodeId s, NodeId t) {
  if (s == t) return 0;
  const Span<const int32_t> ranks = hl.rank_plane();
  const Span<const double> dists = hl.dist_plane();
  size_t i = hl.label_offsets()[static_cast<size_t>(s)];
  size_t j = hl.label_offsets()[static_cast<size_t>(t)];
  double best = std::numeric_limits<double>::infinity();
  while (ranks[i] != HubLabeling::kSentinelRank &&
         ranks[j] != HubLabeling::kSentinelRank) {
    if (ranks[i] == ranks[j]) {
      const double d = dists[i] + dists[j];
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ranks[i] < ranks[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Every ordered pair of a network, in three orders that reach the query's
// three cases: row-major (the source stays pinned), column-major (the target
// stays pinned) and shuffled (mostly neither).
std::vector<std::pair<NodeId, NodeId>> AllPairsThreeWays(size_t n,
                                                         uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> row, out;
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      row.emplace_back(static_cast<NodeId>(s), static_cast<NodeId>(t));
    }
  }
  out = row;
  for (const auto& [s, t] : row) out.emplace_back(t, s);
  Rng rng(seed);
  for (size_t i = row.size(); i > 1; --i) {
    std::swap(row[i - 1],
              row[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  out.insert(out.end(), row.begin(), row.end());
  return out;
}

// Counts the pairs on which Query and the reference differ in any bit.
uint64_t QueryMismatches(const HubLabeling& hl,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  uint64_t mismatches = 0;
  for (const auto& [s, t] : pairs) {
    mismatches += Bits(hl.Query(s, t)) != Bits(MergeJoinQuery(hl, s, t));
  }
  return mismatches;
}

RoadNetwork TestGrid(int rows, int cols, uint64_t seed,
                     double diagonal = CityOptions().diagonal_prob) {
  CityOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.seed = seed;
  opt.diagonal_prob = diagonal;
  return GenerateGridCity(opt);
}

RoadNetwork DimacsFixture() {
  const std::string dir = STRUCTRIDE_TEST_DATA_DIR;
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  EXPECT_TRUE(ImportDimacs(dir + "/mini.gr", dir + "/mini.co", {}, &net,
                           &stats, &error))
      << error;
  return net;
}

// The grids of the tests above, the DIMACS fixture and the two islands.
std::vector<RoadNetwork> QueryTestNetworks() {
  std::vector<RoadNetwork> nets;
  nets.push_back(TestGrid(9, 9, 13));
  for (uint64_t seed : {21u, 22u, 23u}) {
    nets.push_back(TestGrid(7, 8, seed, 0.3));
    nets.push_back(TestGrid(15, 15, seed));
  }
  nets.push_back(DimacsFixture());
  nets.push_back(TwoIslands());
  return nets;
}

// Query equals the merge join bitwise on every ordered pair, whichever
// endpoint the thread has pinned; across the two islands both are +inf.
TEST(HubLabelQueryTest, MatchesMergeJoinOnEveryPair) {
  for (const RoadNetwork& net : QueryTestNetworks()) {
    SCOPED_TRACE(std::to_string(net.num_nodes()) + " nodes");
    HubLabeling hl(net);
    EXPECT_EQ(QueryMismatches(hl, AllPairsThreeWays(net.num_nodes(), 5)),
              0u);
  }
  RoadNetwork islands = TwoIslands();
  HubLabeling hl(islands);
  EXPECT_EQ(hl.Query(1, 6), std::numeric_limits<double>::infinity());
  EXPECT_EQ(hl.Query(6, 1), std::numeric_limits<double>::infinity());
}

// One thread alternating between two labelings query by query: each switch
// must drop the other labeling's pinned node.
TEST(HubLabelQueryTest, InterleavedLabelingsOnOneThread) {
  const RoadNetwork a = TestGrid(9, 9, 13);
  const RoadNetwork b = TestGrid(7, 8, 21, 0.3);
  const HubLabeling hla(a), hlb(b);
  const auto pa = AllPairsThreeWays(a.num_nodes(), 7);
  const auto pb = AllPairsThreeWays(b.num_nodes(), 8);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < std::max(pa.size(), pb.size()); ++i) {
    const auto [s, t] = pa[i % pa.size()];
    const auto [u, v] = pb[i % pb.size()];
    mismatches += Bits(hla.Query(s, t)) != Bits(MergeJoinQuery(hla, s, t));
    mismatches += Bits(hlb.Query(u, v)) != Bits(MergeJoinQuery(hlb, u, v));
  }
  EXPECT_EQ(mismatches, 0u);
}

// Labelings of same-sized graphs destroyed and rebuilt in a loop, likely at
// one address: a node pinned in a dead labeling must never answer for the
// next one.
TEST(HubLabelQueryTest, RebuiltLabelingsNeverReuseAPin) {
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RoadNetwork net =
        TestGrid(9, 9, 100 + static_cast<uint64_t>(round % 3), 0.3);
    auto hl = std::make_unique<HubLabeling>(net);
    // Node 0 ends the previous round pinned; ask for it first.
    uint64_t mismatches = 0;
    for (NodeId t = 1; t < 81; ++t) {
      mismatches += Bits(hl->Query(0, t)) != Bits(MergeJoinQuery(*hl, 0, t));
    }
    mismatches +=
        QueryMismatches(*hl, AllPairsThreeWays(net.num_nodes(), round));
    // Whatever is pinned now, these two leave node 0 pinned.
    for (NodeId t : {1, 2}) {
      mismatches += Bits(hl->Query(0, t)) != Bits(MergeJoinQuery(*hl, 0, t));
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// Four threads sharing one labeling, each pinning its own nodes.
TEST(HubLabelQueryTest, ThreadsSharingOneLabeling) {
  const RoadNetwork net = TestGrid(15, 15, 22);
  const HubLabeling hl(net);
  constexpr int kThreads = 4;
  std::vector<uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      mismatches[static_cast<size_t>(i)] = QueryMismatches(
          hl, AllPairsThreeWays(net.num_nodes(), static_cast<uint64_t>(i)));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[static_cast<size_t>(i)], 0u) << "thread " << i;
  }
}

uint64_t Fnv1a(const void* data, size_t bytes) {
  uint64_t h = 14695981039346656037ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t PlaneDigest(Span<const T> plane) {
  return Fnv1a(plane.data(), plane.size() * sizeof(T));
}

// The label build's pruning decisions fix every entry, so a change to how
// the pruning test is evaluated must leave the three planes bitwise as the
// merge-join build wrote them (digests recorded from that build).
TEST(HubLabelBuildTest, PresetCityPlanesAreStable) {
  struct Expected {
    const char* dataset;
    uint64_t offsets, ranks, dists;
  };
  const Expected kExpected[] = {
      {"NYC", 17104210933309781827ull, 13439657207384887638ull,
       4291120643801403945ull},
      {"CHD", 6876608973322941270ull, 52537419508794266ull,
       5535511137479740076ull},
      {"Cainiao", 9519330121720819649ull, 3181503309346139743ull,
       1755033022188224817ull},
  };
  for (const Expected& e : kExpected) {
    SCOPED_TRACE(e.dataset);
    const RoadNetwork net =
        GenerateGridCity(DatasetByName(e.dataset, 1.0).city);
    const HubLabeling hl(net);
    EXPECT_EQ(PlaneDigest(hl.label_offsets()), e.offsets);
    EXPECT_EQ(PlaneDigest(hl.rank_plane()), e.ranks);
    EXPECT_EQ(PlaneDigest(hl.dist_plane()), e.dists);
  }
}

// The flat open-addressing LRU must behave exactly like the PR2 shard it
// replaced (std::list + unordered_map): same hits, same values, same
// eviction victims in the same order.
TEST(RoadnetTest, FlatLruMatchesReferenceListLru) {
  constexpr size_t kCapacity = 8;
  FlatLru flat(kCapacity);
  EXPECT_EQ(flat.capacity(), kCapacity);
  std::list<std::pair<uint64_t, double>> ref_lru;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, double>>::iterator>
      ref_map;

  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 23));
    const double* hit = flat.Find(key);
    auto it = ref_map.find(key);
    if (it != ref_map.end()) {
      ASSERT_NE(hit, nullptr) << "op " << op;
      EXPECT_EQ(*hit, it->second->second);
      if (it->second != ref_lru.begin()) {
        ref_lru.splice(ref_lru.begin(), ref_lru, it->second);
      }
    } else {
      ASSERT_EQ(hit, nullptr) << "op " << op;
      double value = static_cast<double>(key) * 3.5 + op;
      std::optional<uint64_t> evicted = flat.Insert(key, value);
      ref_lru.emplace_front(key, value);
      ref_map[key] = ref_lru.begin();
      if (ref_map.size() > kCapacity) {
        ASSERT_TRUE(evicted.has_value()) << "op " << op;
        EXPECT_EQ(*evicted, ref_lru.back().first) << "op " << op;
        ref_map.erase(ref_lru.back().first);
        ref_lru.pop_back();
      } else {
        EXPECT_FALSE(evicted.has_value()) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), ref_map.size());
  }
  EXPECT_GT(flat.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace structride
