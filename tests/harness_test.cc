// The bench harness: its JSON emission — every string value (dataset,
// bench, series, point names) flows through JsonEscape before landing in
// BENCH_*.json, so one quote or backslash in a name must never corrupt the
// file — the metrics table the BENCH rows are written from, and
// BenchContext's run isolation.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

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

}  // namespace
}  // namespace bench
}  // namespace structride
