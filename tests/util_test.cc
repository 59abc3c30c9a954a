#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "geo/angle.h"
#include "util/arena.h"
#include "util/latency_histogram.h"
#include "util/random.h"
#include "util/spsc_ring.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace structride {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntStaysInClosedRange) {
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  double lo = 1, hi = 0;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.Uniform(0, 1);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1);
  }
  EXPECT_LT(lo, 0.05);
  EXPECT_GT(hi, 0.95);
}

TEST(RunningStatTest, MeanAndStdDev) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_EQ(stat.Count(), 8u);
  EXPECT_DOUBLE_EQ(stat.Mean(), 5.0);
  EXPECT_NEAR(stat.StdDev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(stat.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.Max(), 9.0);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<int> counts(1000, 0);  // disjoint slots: no synchronization
  pool.ParallelFor(counts.size(), [&](size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100, [&](size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50l * (99 * 100 / 2));
}

TEST(ThreadPoolTest, SingleThreadAndEmptyRangesRunInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(7, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 7);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // Re-entering the pool from inside one of its own tasks must degrade to
  // the inline serial path (every worker could otherwise block waiting for
  // workers that no longer exist). Deterministic too: the inner loop runs
  // in index order on the calling worker.
  ThreadPool pool(4);
  std::vector<int> outer(8, 0);
  std::atomic<long> inner_sum{0};
  pool.ParallelFor(outer.size(), [&](size_t i) {
    ++outer[i];
    pool.ParallelFor(10, [&](size_t j) {
      inner_sum.fetch_add(static_cast<long>(j), std::memory_order_relaxed);
    });
  });
  for (int c : outer) EXPECT_EQ(c, 1);
  EXPECT_EQ(inner_sum.load(), 8l * 45);
}

// Under AddressSanitizer the epoch arena poisons everything outside its
// live blocks: the byte past an array, a scope's blocks once it closes, and
// every block after a Reset.
TEST(ArenaTest, PoisonsOutsideLiveBlocksUnderAsan) {
#ifndef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "arena poisoning is compiled in only under ASan";
#else
  EpochArena arena(/*first_chunk_bytes=*/1024);
  int* outer = arena.AllocateArray<int>(5);
  EXPECT_FALSE(__asan_address_is_poisoned(outer + 4));
  EXPECT_TRUE(__asan_address_is_poisoned(outer + 5));
  int* inner = nullptr;
  {
    ArenaScope scope(arena);
    inner = scope.AllocateArray<int>(3);
    EXPECT_FALSE(__asan_address_is_poisoned(inner + 2));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(inner));
  EXPECT_FALSE(__asan_address_is_poisoned(outer));
  arena.Reset();
  EXPECT_TRUE(__asan_address_is_poisoned(outer));
  EXPECT_EQ(arena.AllocateArray<int>(5), outer);  // re-served, unpoisoned
  EXPECT_FALSE(__asan_address_is_poisoned(outer));
#endif
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4096).capacity(), 4096u);
  EXPECT_EQ(SpscRing<int>(5000).capacity(), 8192u);
}

TEST(SpscRingTest, FullRejectsEmptyReturnsFalse) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));  // empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full: the admission-control rejection
  EXPECT_EQ(ring.SizeApprox(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.TryPop(&out));
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRingTest, WraparoundPreservesFifoOrder) {
  // Push/pop far past the capacity so the monotonic counters wrap the slot
  // array many times; order and values must survive every wrap.
  SpscRing<uint64_t> ring(8);
  uint64_t next_push = 0, next_pop = 0, out = 0;
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 8;
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPush(next_push));
      ++next_push;
    }
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRingTest, CapacityOneAlternates) {
  SpscRing<int> ring(1);
  int out = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
    EXPECT_FALSE(ring.TryPush(i));  // one slot, already full
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
    EXPECT_FALSE(ring.TryPop(&out));
  }
}

TEST(SpscRingTest, ConcurrentProducerConsumerDeliversEverythingInOrder) {
  // The TSan target for the ingestion path: one pushing thread racing one
  // popping thread across constant full/empty transitions on a tiny ring.
  // Every value must arrive exactly once, in order.
  SpscRing<uint64_t> ring(4);
  constexpr uint64_t kCount = 20000;
  std::thread producer([&] {
    for (uint64_t v = 0; v < kCount;) {
      if (ring.TryPush(v)) {
        ++v;
      } else {
        std::this_thread::yield();  // full: let the consumer drain
      }
    }
  });
  uint64_t expect = 0, out = 0;
  while (expect < kCount) {
    if (ring.TryPop(&out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(LatencyHistogramTest, BucketBoundariesPartitionTheRange) {
  // Every bucket's [lower, upper) maps back to the bucket itself at both
  // edges (lower inclusive, upper lands in the next bucket), the spans
  // tile with no gaps, and each bucket is at most 6.25% wide.
  for (int b = LatencyHistogram::kSubBuckets; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
    const double lo = LatencyHistogram::BucketLower(b);
    const double hi = LatencyHistogram::BucketUpper(b);
    EXPECT_EQ(LatencyHistogram::BucketOf(lo), b);
    EXPECT_EQ(LatencyHistogram::BucketOf(hi), b + 1);
    EXPECT_EQ(LatencyHistogram::BucketUpper(b), LatencyHistogram::BucketLower(b + 1));
    EXPECT_LE((hi - lo) / lo, 1.0 / LatencyHistogram::kSubBuckets + 1e-12);
  }
  // The edge cases clamp instead of indexing out of range.
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(-3.5), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(std::nan("")), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(1e300), LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(std::numeric_limits<double>::infinity()),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  Rng rng(11);
  LatencyHistogram a, b, c;
  for (int i = 0; i < 500; ++i) a.Record(rng.Uniform(0, 1) * 100);
  for (int i = 0; i < 300; ++i) b.Record(rng.Uniform(0, 1) * 0.5);
  for (int i = 0; i < 700; ++i) c.Record(1 + rng.Uniform(0, 1) * 1e4);
  LatencyHistogram ab_c = a;   // (a+b)+c
  ab_c.Merge(b);
  ab_c.Merge(c);
  LatencyHistogram bc_a = b;   // (b+c)+a
  bc_a.Merge(c);
  bc_a.Merge(a);
  EXPECT_EQ(ab_c.count(), bc_a.count());
  EXPECT_EQ(ab_c.min(), bc_a.min());
  EXPECT_EQ(ab_c.max(), bc_a.max());
  for (int k = 0; k < LatencyHistogram::kNumBuckets; ++k) {
    ASSERT_EQ(ab_c.bucket_count(k), bc_a.bucket_count(k));
  }
  EXPECT_EQ(ab_c.Quantile(0.99), bc_a.Quantile(0.99));
}

TEST(LatencyHistogramTest, QuantilesTrackSortedReference) {
  // Against the exact nearest-rank quantile of the sorted samples, the
  // log-bucketed read-back must stay within one bucket width (~6.25%
  // relative) on a heavy-tailed mixture like real dispatch latencies.
  Rng rng(23);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    double v = 0.1 * std::exp(3.0 * rng.Uniform(0, 1));  // log-uniform-ish
    if (i % 100 == 0) v *= 50;                       // a 1% far tail
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    EXPECT_NEAR(h.Quantile(q), exact, exact * 0.0651)
        << "q=" << q;
  }
  // Extremes are exact, not bucketized.
  EXPECT_EQ(h.min(), samples.front());
  EXPECT_EQ(h.max(), samples.back());
}

TEST(LatencyHistogramTest, EmptyAndResetReportZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.Record(4.2);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Quantile(0.5), 4.2);  // single sample: clamped to exact
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0);
}

TEST(AngleTest, OrthogonalAndParallel) {
  EXPECT_NEAR(AngleBetween({1, 0}, {0, 1}), kPi / 2, 1e-12);
  EXPECT_NEAR(AngleBetween({1, 0}, {2, 0}), 0, 1e-12);
  EXPECT_NEAR(AngleBetween({1, 0}, {-3, 0}), kPi, 1e-12);
  // Degenerate vectors never report a wide angle.
  EXPECT_DOUBLE_EQ(AngleBetween({0, 0}, {1, 1}), 0);
}

}  // namespace
}  // namespace structride
