// Binary snapshot persistence: lossless round-trips (bitwise-identical
// costs from every backend, identical engine sp_queries and landmark
// tables, loaded vs built),
// byte-reproducible writes, zero-copy mmap loads, and adversarial inputs —
// truncation, checksum flips, wrong magic/version, out-of-bounds section
// offsets, corrupt section contents — each failing loudly through the error
// return, never reading out of bounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "roadnet/astar.h"
#include "roadnet/contraction_hierarchies.h"
#include "roadnet/dijkstra.h"
#include "roadnet/generator.h"
#include "roadnet/hub_labeling.h"
#include "roadnet/importer.h"
#include "roadnet/snapshot.h"
#include "roadnet/travel_cost.h"
#include "util/random.h"

namespace structride {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(STRUCTRIDE_TEST_DATA_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// Container layout constants mirrored from roadnet/snapshot.cc for the
// byte-surgery tests.
constexpr size_t kHeaderBytes = 64;
constexpr size_t kEntryBytes = 24;
constexpr size_t kChecksumOffset = 16;
constexpr size_t kVersionOffset = 8;
constexpr size_t kNumSectionsOffset = 12;

uint32_t NumSections(const std::string& bytes) {
  uint32_t n;
  std::memcpy(&n, bytes.data() + kNumSectionsOffset, sizeof(n));
  return n;
}

// Finds the file offset of section \p id's payload (0 if absent).
uint64_t SectionOffset(const std::string& bytes, uint32_t id,
                       uint64_t* size = nullptr) {
  for (uint32_t i = 0; i < NumSections(bytes); ++i) {
    uint32_t entry_id;
    const char* entry = bytes.data() + kHeaderBytes + i * kEntryBytes;
    std::memcpy(&entry_id, entry, sizeof(entry_id));
    if (entry_id != id) continue;
    uint64_t off;
    std::memcpy(&off, entry + 8, sizeof(off));
    if (size != nullptr) std::memcpy(size, entry + 16, sizeof(*size));
    return off;
  }
  return 0;
}

// A small synthetic city and the bundled DIMACS fixture: the two graph
// sources the differential runs over.
RoadNetwork MakeGrid() {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 77;
  return GenerateGridCity(opt);
}

RoadNetwork MakeFixture() {
  RoadNetwork net;
  ImportStats stats;
  std::string error;
  EXPECT_TRUE(ImportDimacs(DataPath("mini.gr"), DataPath("mini.co"), {}, &net,
                           &stats, &error))
      << error;
  return net;
}

// Writes net (+ freshly built HL and CH) to \p path and returns the loaded
// bundle. EXPECT-fails on any error.
GraphBundle RoundTrip(const RoadNetwork& net, const HubLabeling& hl,
                      const ContractionHierarchies& ch,
                      const std::string& path, bool use_mmap) {
  SnapshotWriteOptions wopts;
  wopts.hub_labels = &hl;
  wopts.ch = &ch;
  std::string error;
  EXPECT_TRUE(WriteGraphSnapshot(net, wopts, path, &error)) << error;
  GraphBundle bundle;
  SnapshotLoadOptions lopts;
  lopts.use_mmap = use_mmap;
  EXPECT_TRUE(LoadGraphSnapshot(path, lopts, &bundle, &error)) << error;
  return bundle;
}

// The loss-less contract: on sampled pairs, every backend on the loaded
// graph returns the bitwise-identical cost the in-memory original returns.
void ExpectBitwiseEqualBackends(const RoadNetwork& net, const HubLabeling& hl,
                                const ContractionHierarchies& ch,
                                const GraphBundle& loaded, uint64_t seed) {
  ASSERT_EQ(loaded.network.num_nodes(), net.num_nodes());
  ASSERT_EQ(loaded.network.num_edges(), net.num_edges());
  ASSERT_NE(loaded.hub_labels, nullptr);
  ASSERT_NE(loaded.ch, nullptr);
  EXPECT_TRUE(loaded.network.borrowed());
  EXPECT_EQ(loaded.hub_labels->TotalLabelEntries(), hl.TotalLabelEntries());
  EXPECT_EQ(loaded.ch->num_shortcuts(), ch.num_shortcuts());

  Rng rng(seed);
  const int64_t n = static_cast<int64_t>(net.num_nodes());
  for (int trial = 0; trial < 40; ++trial) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    // Bitwise (==), not NEAR: the loaded arrays are the written arrays, so
    // every backend must run the exact same float operations.
    EXPECT_EQ(BidirectionalDijkstra(loaded.network, s, t),
              BidirectionalDijkstra(net, s, t));
    EXPECT_EQ(AStarCost(loaded.network, s, t), AStarCost(net, s, t));
    EXPECT_EQ(DijkstraAll(loaded.network, s)[static_cast<size_t>(t)],
              DijkstraAll(net, s)[static_cast<size_t>(t)]);
    EXPECT_EQ(loaded.hub_labels->Query(s, t), hl.Query(s, t));
    EXPECT_EQ(loaded.ch->Query(s, t), ch.Query(s, t));
  }
}

TEST(SnapshotTest, RoundTripIsLosslessOnGridAndFixture) {
  int source = 0;
  for (const auto& make : {+[] { return MakeGrid(); },
                           +[] { return MakeFixture(); }}) {
    RoadNetwork net = make();
    net.Freeze();
    HubLabeling hl(net);
    ContractionHierarchies ch(net);
    std::string path = TempPath("rt" + std::to_string(source) + ".snap");
    for (bool use_mmap : {false, true}) {
      GraphBundle loaded = RoundTrip(net, hl, ch, path, use_mmap);
      ExpectBitwiseEqualBackends(net, hl, ch, loaded,
                                 1234u + static_cast<uint64_t>(source));
    }
    ++source;
  }
}

// The landmark table is a function of the frozen CSR alone, so an engine
// over a loaded network must hold bitwise the table an engine over the
// written network holds: same landmarks, same distance bits.
TEST(SnapshotTest, LoadedNetworkHasTheSameLandmarkTable) {
  int source = 0;
  for (const auto& make : {+[] { return MakeGrid(); },
                           +[] { return MakeFixture(); }}) {
    RoadNetwork net = make();
    net.Freeze();
    HubLabeling hl(net);
    ContractionHierarchies ch(net);
    TravelCostEngine written(net);
    const LandmarkTable& want = written.landmark_table();
    std::string path = TempPath("lm" + std::to_string(source++) + ".snap");
    for (bool use_mmap : {false, true}) {
      GraphBundle loaded = RoundTrip(net, hl, ch, path, use_mmap);
      TravelCostOptions options;
      options.prebuilt_hub_labels = loaded.hub_labels.get();
      TravelCostEngine adopted(loaded.network, options);
      const LandmarkTable& got = adopted.landmark_table();
      EXPECT_EQ(got.landmarks(), want.landmarks());
      ASSERT_EQ(got.distances().size(), want.distances().size());
      EXPECT_EQ(std::memcmp(got.distances().data(), want.distances().data(),
                            want.distances().size() * sizeof(double)),
                0);
    }
  }
}

TEST(SnapshotTest, LoadedEngineMatchesRebuiltEngineQueryForQuery) {
  RoadNetwork net = MakeFixture();
  net.Freeze();
  HubLabeling hl(net);
  ContractionHierarchies ch(net);
  std::string path = TempPath("engine.snap");
  GraphBundle loaded = RoundTrip(net, hl, ch, path, /*use_mmap=*/true);

  for (auto backend : {TravelCostOptions::Backend::kHubLabeling,
                       TravelCostOptions::Backend::kContractionHierarchies}) {
    TravelCostOptions built_opts;
    built_opts.backend = backend;
    TravelCostEngine built(net, built_opts);

    TravelCostOptions loaded_opts;
    loaded_opts.backend = backend;
    loaded_opts.prebuilt_hub_labels = loaded.hub_labels.get();
    loaded_opts.prebuilt_ch = loaded.ch.get();
    TravelCostEngine adopted(loaded.network, loaded_opts);

    // Same query sequence (with repeats, so hits happen) must produce
    // bitwise-identical costs and identical sp_queries accounting.
    Rng rng(99);
    const int64_t n = static_cast<int64_t>(net.num_nodes());
    std::vector<NodeId> targets;
    for (int i = 0; i < 50; ++i) {
      targets.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
    }
    for (int round = 0; round < 2; ++round) {
      for (NodeId t : targets) {
        EXPECT_EQ(built.Cost(3, t), adopted.Cost(3, t));
      }
      std::vector<double> a(targets.size()), b(targets.size());
      built.CostMany(7, {targets.data(), targets.size()}, a.data());
      adopted.CostMany(7, {targets.data(), targets.size()}, b.data());
      for (size_t i = 0; i < targets.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
    EXPECT_EQ(built.num_queries(), adopted.num_queries());
    EXPECT_EQ(built.num_lookups(), adopted.num_lookups());
  }
}

TEST(SnapshotTest, WritesAreByteReproducible) {
  RoadNetwork net = MakeGrid();
  HubLabeling hl(net);
  ContractionHierarchies ch(net);
  SnapshotWriteOptions wopts;
  wopts.hub_labels = &hl;
  wopts.ch = &ch;
  std::string error;
  std::string p1 = TempPath("repro1.snap"), p2 = TempPath("repro2.snap");
  ASSERT_TRUE(WriteGraphSnapshot(net, wopts, p1, &error)) << error;
  ASSERT_TRUE(WriteGraphSnapshot(net, wopts, p2, &error)) << error;
  EXPECT_EQ(Slurp(p1), Slurp(p2));
}

TEST(SnapshotTest, GraphOnlySnapshotLoadsWithoutIndices) {
  RoadNetwork net = MakeGrid();
  std::string path = TempPath("graphonly.snap");
  std::string error;
  ASSERT_TRUE(WriteGraphSnapshot(net, {}, path, &error)) << error;
  EXPECT_TRUE(IsSnapshotFile(path));
  GraphBundle bundle;
  ASSERT_TRUE(LoadGraphSnapshot(path, {}, &bundle, &error)) << error;
  EXPECT_EQ(bundle.hub_labels, nullptr);
  EXPECT_EQ(bundle.ch, nullptr);
  EXPECT_EQ(BidirectionalDijkstra(bundle.network, 0, 63),
            BidirectionalDijkstra(net, 0, 63));
}

// ------------------------------------------------------- adversarial ----

class SnapshotAdversarialTest : public testing::Test {
 protected:
  void SetUp() override {
    RoadNetwork net = MakeGrid();
    HubLabeling hl(net);
    ContractionHierarchies ch(net);
    SnapshotWriteOptions wopts;
    wopts.hub_labels = &hl;
    wopts.ch = &ch;
    path_ = TempPath("adv.snap");
    std::string error;
    ASSERT_TRUE(WriteGraphSnapshot(net, wopts, path_, &error)) << error;
    bytes_ = Slurp(path_);
    ASSERT_GE(bytes_.size(), kHeaderBytes);
  }

  // Writes the mutated bytes and expects the load to fail mentioning
  // \p needle. Runs both load paths: heap read and mmap.
  void ExpectRejected(const std::string& bytes, const std::string& needle) {
    Spit(path_, bytes);
    for (bool use_mmap : {false, true}) {
      GraphBundle bundle;
      std::string error;
      SnapshotLoadOptions lopts;
      lopts.use_mmap = use_mmap;
      EXPECT_FALSE(LoadGraphSnapshot(path_, lopts, &bundle, &error));
      EXPECT_NE(error.find(needle), std::string::npos)
          << "want \"" << needle << "\" in \"" << error << "\"";
    }
  }

  // Mutates bytes, then re-stamps a valid checksum so the structural
  // validators (not the checksum gate) are what rejects the file.
  void ExpectRejectedPastChecksum(const std::string& bytes,
                                  const std::string& needle) {
    Spit(path_, bytes);
    std::string error;
    ASSERT_TRUE(RewriteSnapshotChecksum(path_, &error)) << error;
    ExpectRejected(Slurp(path_), needle);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotAdversarialTest, TruncatedFile) {
  ExpectRejected(bytes_.substr(0, 10), "too small");
  ExpectRejected(bytes_.substr(0, kHeaderBytes + 5), "truncated");
  ExpectRejected(bytes_.substr(0, bytes_.size() / 2), "truncated");
}

TEST_F(SnapshotAdversarialTest, FlippedChecksum) {
  std::string bytes = bytes_;
  bytes[kChecksumOffset] ^= 0x01;
  ExpectRejected(bytes, "checksum mismatch");
  // A flipped payload byte trips the same gate.
  bytes = bytes_;
  bytes[bytes.size() - 1] ^= 0x80;
  ExpectRejected(bytes, "checksum mismatch");
}

TEST_F(SnapshotAdversarialTest, WrongMagicAndVersion) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  ExpectRejected(bytes, "bad magic");

  bytes = bytes_;
  uint32_t v = 999;
  std::memcpy(&bytes[kVersionOffset], &v, sizeof(v));
  ExpectRejected(bytes, "unsupported snapshot version");
}

TEST_F(SnapshotAdversarialTest, SectionOffsetOutOfBounds) {
  // Point the first section's offset past EOF (keeping page alignment so
  // the bounds check, not the alignment check, fires).
  std::string bytes = bytes_;
  uint64_t huge = (bytes.size() / 4096 + 16) * 4096;
  std::memcpy(&bytes[kHeaderBytes + 8], &huge, sizeof(huge));
  ExpectRejectedPastChecksum(bytes, "out of bounds");

  // Size overflowing past EOF from a valid offset.
  bytes = bytes_;
  uint64_t big_size = bytes.size();
  std::memcpy(&bytes[kHeaderBytes + 16], &big_size, sizeof(big_size));
  ExpectRejectedPastChecksum(bytes, "out of bounds");

  // Misaligned offset.
  bytes = bytes_;
  uint64_t off;
  std::memcpy(&off, &bytes[kHeaderBytes + 8], sizeof(off));
  off += 8;
  std::memcpy(&bytes[kHeaderBytes + 8], &off, sizeof(off));
  ExpectRejectedPastChecksum(bytes, "not page-aligned");
}

TEST_F(SnapshotAdversarialTest, CorruptCsrContents) {
  // An arc targeting a node far out of range: the loader must reject it
  // before any search could index with it.
  std::string bytes = bytes_;
  uint64_t arcs_off = SectionOffset(bytes, /*csr_arcs=*/3);
  ASSERT_NE(arcs_off, 0u);
  int32_t evil = 1 << 20;
  std::memcpy(&bytes[arcs_off], &evil, sizeof(evil));
  ExpectRejectedPastChecksum(bytes, "out-of-range node");

  // Non-monotone CSR offsets.
  bytes = bytes_;
  uint64_t offs_off = SectionOffset(bytes, /*csr_offsets=*/2);
  ASSERT_NE(offs_off, 0u);
  uint32_t big = 0xffffffffu;
  std::memcpy(&bytes[offs_off + 4], &big, sizeof(big));
  ExpectRejectedPastChecksum(bytes, "not monotone");
}

TEST_F(SnapshotAdversarialTest, CorruptHubLabelRanks) {
  // A rank >= n would index past the query's pin scratch; the loader must
  // catch it during validation.
  std::string bytes = bytes_;
  uint64_t ranks_off = SectionOffset(bytes, /*hl_ranks=*/5);
  ASSERT_NE(ranks_off, 0u);
  int32_t evil = 1 << 20;
  std::memcpy(&bytes[ranks_off], &evil, sizeof(evil));
  ExpectRejectedPastChecksum(bytes, "rank plane malformed");

  // A missing final sentinel would let a query walk run off the plane.
  uint64_t ranks_size = 0;
  bytes = bytes_;
  SectionOffset(bytes, 5, &ranks_size);
  int32_t zero = 0;
  std::memcpy(&bytes[ranks_off + ranks_size - 4], &zero, sizeof(zero));
  ExpectRejectedPastChecksum(bytes, "sentinel");
}

// Runs need not be contiguous or in node order: every query walk stops on
// its own run's sentinel. Swapping two nodes' run starts loads, and the
// loaded labels answer bitwise as the built ones with the two nodes'
// labels swapped.
TEST_F(SnapshotAdversarialTest, SwappedHubLabelRunsLoadAndStayInBounds) {
  std::string bytes = bytes_;
  const uint64_t offs_off = SectionOffset(bytes, /*hl_offsets=*/4);
  ASSERT_NE(offs_off, 0u);
  uint32_t run0, run1;
  std::memcpy(&run0, &bytes[offs_off], sizeof(run0));
  std::memcpy(&run1, &bytes[offs_off + 4], sizeof(run1));
  std::memcpy(&bytes[offs_off], &run1, sizeof(run1));
  std::memcpy(&bytes[offs_off + 4], &run0, sizeof(run0));
  Spit(path_, bytes);
  std::string error;
  ASSERT_TRUE(RewriteSnapshotChecksum(path_, &error)) << error;
  GraphBundle loaded;
  ASSERT_TRUE(LoadGraphSnapshot(path_, {}, &loaded, &error)) << error;
  ASSERT_NE(loaded.hub_labels, nullptr);

  const RoadNetwork net = MakeGrid();
  const HubLabeling built(net);
  auto swap01 = [](NodeId v) -> NodeId { return v < 2 ? 1 - v : v; };
  const NodeId n = static_cast<NodeId>(net.num_nodes());
  uint64_t mismatches = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      const double got = loaded.hub_labels->Query(s, t);
      const double want = s == t ? 0 : built.Query(swap01(s), swap01(t));
      mismatches += std::memcmp(&got, &want, sizeof(got)) != 0;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_F(SnapshotAdversarialTest, SectionTableDoesNotFit) {
  std::string bytes = bytes_;
  uint32_t sections = 1u << 30;
  std::memcpy(&bytes[kNumSectionsOffset], &sections, sizeof(sections));
  ExpectRejectedPastChecksum(bytes, "section table does not fit");
}

}  // namespace
}  // namespace structride
