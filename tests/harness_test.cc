// The bench harness: its JSON emission — every string value (dataset,
// bench, series, point names) flows through JsonEscape before landing in
// BENCH_*.json, so one quote or backslash in a name must never corrupt the
// file — the metrics table the BENCH rows are written from, BenchContext's
// run isolation, and the integer env knobs' parsing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "sim/run_metrics.h"
#include "tests/test_fixtures.h"

namespace structride {
namespace bench {
namespace {

TEST(JsonEscapeTest, PassesPlainStringsThrough) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("CHD baseline"), "CHD baseline");
  EXPECT_EQ(JsonEscape("abl_scenarios-0.25x"), "abl_scenarios-0.25x");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscapeTest, EscapesNamedControls) {
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("cr\rlf\n"), "cr\\rlf\\n");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(JsonEscapeTest, EscapesOtherControlBytesAsUnicode) {
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  // 0x20 (space) and above pass through.
  EXPECT_EQ(JsonEscape(" ~"), " ~");
}

TEST(JsonEscapeTest, KeepsUtf8MultibyteSequencesIntact) {
  // Bytes >= 0x80 are not control characters; a UTF-8 dataset name must
  // survive byte-for-byte.
  EXPECT_EQ(JsonEscape("Chéngdū"), "Chéngdū");
}

// The build fails when RunMetrics has more fields than the metrics table
// has entries; distinct members make that one entry per field, and
// distinct keys keep BENCH rows free of duplicates.
TEST(MetricsTableTest, NamesEveryFieldOnce) {
  RunMetrics m;
  std::set<const void*> members;
  std::set<std::string> keys;
  ForEachMetric([&](const auto& field) {
    members.insert(&(m.*field.member));
    keys.insert(field.name);
  });
  const size_t entries = std::tuple_size_v<decltype(kRunMetricFields)>;
  EXPECT_EQ(members.size(), entries);
  EXPECT_EQ(keys.size(), entries);
}

// Each Run starts on a cold travel-cost cache, so a row's sp_queries does
// not depend on which runs came before it in the same context.
TEST(BenchContextTest, IdenticalConsecutiveRunsReportEqualQueries) {
  BenchContext ctx("CHD", 0.02);
  RunMetrics first = ctx.Run("SARD", PointParams{});
  RunMetrics second = ctx.Run("SARD", PointParams{});
  EXPECT_GT(first.sp_queries, 0u);
  ExpectBitwiseEqual(first, second);
}

// Sets one env var for a scope and restores its previous state after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// Only whole integers in [1, INT_MAX] are taken; everything else keeps the
// default rather than wrapping through a cast to int.
TEST(EnvKnobTest, ShardsTakeOnlyWholeIntegersInRange) {
  {
    ScopedEnv env("STRUCTRIDE_SHARDS", "4");
    EXPECT_EQ(BenchShards(), 4);
  }
  {
    ScopedEnv env("STRUCTRIDE_SHARDS", "2147483647");
    EXPECT_EQ(BenchShards(), 2147483647);
  }
  for (const char* bad : {"2147483648", "4294967297", "99999999999999999999",
                          "0", "-3", "4x", "", " 4", "+4", "4.0"}) {
    SCOPED_TRACE(bad);
    ScopedEnv env("STRUCTRIDE_SHARDS", bad);
    EXPECT_EQ(BenchShards(), 1);
  }
}

TEST(EnvKnobTest, ThreadsTakeOnlyWholeIntegersInRange) {
  {
    ScopedEnv env("STRUCTRIDE_THREADS", "1");
    EXPECT_EQ(BenchThreads(), 1);
  }
  for (const char* bad : {"4294967297", "4294967300", "2147483648", "0",
                          "-1", "8 threads"}) {
    SCOPED_TRACE(bad);
    ScopedEnv env("STRUCTRIDE_THREADS", bad);
    EXPECT_EQ(BenchThreads(), 4);
  }
}

// The svc shard list skips a bad token and keeps the rest.
TEST(EnvKnobTest, ShardListSkipsBadTokens) {
  const char* kName = "STRUCTRIDE_SVC_SHARDS";
  {
    ScopedEnv env(kName, "1,4x,2147483648,,2,0,-1,3");
    EXPECT_EQ(EnvPositiveIntList(kName, "1,4"), (std::vector<int>{1, 2, 3}));
  }
  {
    ScopedEnv env(kName, "4294967297");
    EXPECT_TRUE(EnvPositiveIntList(kName, "1,4").empty());
  }
  unsetenv(kName);
  EXPECT_EQ(EnvPositiveIntList(kName, "1,4"), (std::vector<int>{1, 4}));
}

// The double knobs take only finite numbers: strtod parses "inf", "nan"
// and an overflowing "1e999" (as +inf), and each keeps the default.
TEST(EnvKnobTest, DoubleKnobsRejectNonFiniteValues) {
  for (const char* bad : {"inf", "-inf", "nan", "1e999", "INFINITY"}) {
    SCOPED_TRACE(bad);
    {
      ScopedEnv env("STRUCTRIDE_SCALE", bad);
      EXPECT_EQ(BenchScale(), 0.25);
    }
    {
      ScopedEnv env("STRUCTRIDE_QPS", bad);
      EXPECT_EQ(BenchQps(), 0);
    }
    {
      ScopedEnv env("STRUCTRIDE_SLO_P99_MS", bad);
      EXPECT_EQ(BenchSloP99Ms(), 250);
    }
  }
  ScopedEnv scale("STRUCTRIDE_SCALE", "0.05");
  EXPECT_EQ(BenchScale(), 0.05);
  ScopedEnv qps("STRUCTRIDE_QPS", "1500");
  EXPECT_EQ(BenchQps(), 1500);
  ScopedEnv slo("STRUCTRIDE_SLO_P99_MS", "1e3");
  EXPECT_EQ(BenchSloP99Ms(), 1000);
}

}  // namespace
}  // namespace bench
}  // namespace structride
