// The allocation gate (DESIGN.md §8). This binary links
// util/counting_new.cc, so global operator new/delete really count — which
// turns two promises into assertions:
//
//  1. EpochArena semantics: Reset retains chunks (a warmed arena re-serves
//     the same workload with zero heap allocations), Save/Restore gives
//     scopes a stack discipline, and the process-wide retained-byte
//     accounting moves only on the cold paths.
//  2. The pooled dispatcher hot paths (SARD, GAS, RTV) perform zero heap
//     allocations on a steady-state batch: after one warm-up round over a
//     fixed pending pool, re-dispatching the same pool allocates nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"
#include "roadnet/generator.h"
#include "sim/workload.h"
#include "tests/test_fixtures.h"
#include "util/alloc_gate.h"
#include "util/arena.h"

namespace structride {
namespace {

TEST(AllocGateTest, CountingAllocatorIsInstalledHere) {
  ASSERT_TRUE(HeapAllocCountingActive());
  uint64_t before = CurrentHeapAllocCount();
  int* p = new int(7);
  EXPECT_GT(CurrentHeapAllocCount(), before);
  delete p;
}

TEST(AllocGateTest, ArenaResetRetainsChunksAndReservesZeroAllocSteadyState) {
  EpochArena arena(/*first_chunk_bytes=*/1024);
  const uint64_t epoch0 = arena.epoch();
  // Warm-up epoch: force growth across several chunks.
  for (int i = 0; i < 64; ++i) arena.AllocateArray<double>(100);
  const size_t retained = arena.retained_bytes();
  EXPECT_GT(retained, size_t{1024});
  EXPECT_GE(EpochArena::ProcessRetainedBytes(), retained);
  EXPECT_GE(EpochArena::ProcessPeakRetainedBytes(),
            EpochArena::ProcessRetainedBytes());

  arena.Reset();
  EXPECT_EQ(arena.epoch(), epoch0 + 1);
  EXPECT_EQ(arena.retained_bytes(), retained);  // chunks survive
  EXPECT_EQ(arena.used_bytes(), size_t{0});

  // Steady-state epoch: the identical workload re-served from warm chunks
  // must not touch the heap at all.
  uint64_t before = CurrentHeapAllocCount();
  for (int i = 0; i < 64; ++i) arena.AllocateArray<double>(100);
  EXPECT_EQ(CurrentHeapAllocCount() - before, uint64_t{0});
  EXPECT_EQ(arena.retained_bytes(), retained);
}

TEST(AllocGateTest, ArenaScopeRewindsToTheSameStorage) {
  EpochArena arena;
  void* outer = arena.Allocate(64);
  void* inner1;
  {
    ArenaScope scope(arena);
    inner1 = scope.AllocateArray<char>(128);
    EXPECT_NE(inner1, outer);
  }
  // The scope died, so its block is re-issued to the next caller.
  void* inner2 = arena.Allocate(128, alignof(char));
  EXPECT_EQ(inner1, inner2);

  // Zero-byte requests get distinct, valid storage.
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

// The dispatcher-level gate. The context is built the way the engine builds
// it (FullDispatchContext: caller-owned arena reset per round, SoA planes
// refreshed per round, a persistent run-scoped share-graph builder, the
// maintained fleet index and the commit log) over a pending pool of riders
// whose deadlines already passed: every feasibility check fails, nothing
// commits, so the fleet and pending pool are identical round after round.
// Round 1 warms every pool (arena chunks, grouping scratch, thread scratch,
// travel-cost cache); rounds 2 and 3 are steady-state and must allocate
// nothing.
class DispatcherGateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DispatcherGateTest, SteadyStateBatchAllocatesNothing) {
  ASSERT_TRUE(HeapAllocCountingActive());
  CityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 53;
  RoadNetwork net = GenerateGridCity(opt);
  TravelCostEngine engine(net);
  DeadlinePolicy policy;
  policy.gamma = 1.8;
  WorkloadOptions wopts;
  wopts.num_requests = 24;
  wopts.duration = 40;
  wopts.seed = 17;
  std::vector<Request> requests =
      GenerateWorkload(net, &engine, policy, wopts);
  for (Request& r : requests) {
    r.latest_pickup = -1000;  // expired: nothing is ever feasible
    r.deadline = -1000;
  }

  std::vector<Vehicle> fleet;
  for (int i = 0; i < 6; ++i) {
    fleet.emplace_back(i, requests[static_cast<size_t>(i)].source, 4);
  }

  DispatchConfig config;
  config.vehicle_capacity = 4;
  config.grouping.max_group_size = 4;
  config.sharegraph.vehicle_capacity = 4;
  std::unique_ptr<Dispatcher> dispatcher =
      MakeDispatcher(GetParam(), config);

  FullDispatchContext full(&engine, &fleet, config);
  for (const Request& r : requests) full.ctx.pending.push_back(&r);

  for (int round = 1; round <= 3; ++round) {
    DispatchContext* ctx = full.BeginRound(100 + 5 * round);
    uint64_t before = CurrentHeapAllocCount();
    dispatcher->OnBatch(ctx);
    uint64_t allocs = CurrentHeapAllocCount() - before;
    EXPECT_TRUE(ctx->assigned.empty());
    if (round >= 2) {
      EXPECT_EQ(allocs, uint64_t{0})
          << GetParam() << " allocated on steady-state round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PooledDispatchers, DispatcherGateTest,
                         ::testing::Values("SARD", "GAS", "RTV"));

}  // namespace
}  // namespace structride
