// Unit tests of the benchmark's own statistics and result formatting.
// The end-to-end checks (printed output parses, each oracle can fail) live
// in selftest.py, which drives the built lcbench binary.
#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/json.hpp"
#include "stats.hpp"

namespace lcbench {
namespace {

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, TailLeavesTenAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  // 11 samples: only the smallest leaves ten above it.
  EXPECT_DOUBLE_EQ(tail(v).value, 1);
  EXPECT_NEAR(tail(v).percentile, 100.0 / 11, 1e-12);
  v.clear();
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  const Tail t = tail(v);
  EXPECT_DOUBLE_EQ(t.value, 90);  // p90 of 1..100: 10 samples above it
  EXPECT_DOUBLE_EQ(t.percentile, 90);
  int above = 0;
  for (double x : v) above += x > t.value;
  EXPECT_EQ(above, 10);
}

TEST(Stats, TailRefusesTooFewSamples) {
  EXPECT_THROW(tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), std::invalid_argument);
  EXPECT_THROW(tail({}), std::invalid_argument);
}

TEST(Stats, PairedRatioMedian) {
  // Pairs share a common factor (host noise); the ratio cancels it.
  EXPECT_DOUBLE_EQ(paired_ratio_median({2, 4, 30}, {1, 2, 10}), 2);
  EXPECT_DOUBLE_EQ(paired_ratio_median({3, 8}, {1, 2}), 3.5);
  EXPECT_THROW(paired_ratio_median({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(paired_ratio_median({1}, {0}), std::invalid_argument);
}

TEST(Names, MetricNameCharset) {
  EXPECT_TRUE(valid_metric_name("tokens_per_s"));
  EXPECT_TRUE(valid_metric_name("comm.hop_us_shm"));
  EXPECT_TRUE(valid_metric_name("0-a.b_c"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(Output, ResultLineParsesWithExactKeys) {
  const std::string line = result_json(
      true, 12, 0,
      {{"step_s_p50", 0.812345678901234, "s"}, {"tokens_per_s", 5042.5, "tokens/s"}});
  const weipipe::obs::JsonParseResult p = weipipe::obs::parse_json(line);
  ASSERT_TRUE(p.ok) << p.error;
  const auto& obj = p.value.object;
  ASSERT_EQ(obj.size(), 4u);
  EXPECT_TRUE(obj.at("correct").boolean);
  EXPECT_EQ(obj.at("attempted").number, 12);
  EXPECT_EQ(obj.at("failed").number, 0);
  const auto& m = obj.at("metrics").object;
  ASSERT_EQ(m.size(), 2u);
  // All digits survive the round trip.
  EXPECT_EQ(m.at("step_s_p50").find("value")->number, 0.812345678901234);
  EXPECT_EQ(m.at("tokens_per_s").find("unit")->string, "tokens/s");
}

TEST(Output, ResultLineRejectsBadMetrics) {
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 0.0 / 0.0, "s"}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lcbench
