// Tests of the benchmark's own arithmetic (perfbench/src/stats.h).
#include "perfbench/src/stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(1000), 99.0);   // 10 beyond p99
  EXPECT_EQ(TailPercentileFor(999), 95.0);    // p99 would leave 9.99
  EXPECT_EQ(TailPercentileFor(200), 95.0);
  EXPECT_EQ(TailPercentileFor(199), 90.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(40), 75.0);
  EXPECT_EQ(TailPercentileFor(20), 50.0);
  EXPECT_EQ(TailPercentileFor(19), 100.0);    // too few: report the maximum
  EXPECT_EQ(TailPercentileFor(0), 100.0);
  EXPECT_EQ(TailPercentileFor(1000000), 99.0);  // capped at p99
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  std::vector<double> hundred_and_one;
  for (int i = 0; i <= 100; ++i) {
    hundred_and_one.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(hundred_and_one, 99.0), 99.0);
}

TEST(UnionLength, CountsOverlapsOnce) {
  EXPECT_DOUBLE_EQ(UnionLength({}), 0.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}}), 10.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {5, 15}}), 15.0);    // overlap
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {2, 3}}), 10.0);     // nested
  EXPECT_DOUBLE_EQ(UnionLength({{20, 30}, {0, 10}}), 20.0);   // disjoint, unsorted
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {10, 20}}), 20.0);   // touching
  EXPECT_DOUBLE_EQ(UnionLength({{5, 5}, {9, 3}}), 0.0);       // empty, inverted
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan) {
  const Interval op{100, 200};
  EXPECT_DOUBLE_EQ(SelfTime(op, {}), 100.0);
  // Four concurrent 30 ms calls over the same window cost 30 ms, not 120.
  EXPECT_DOUBLE_EQ(SelfTime(op, {{110, 140}, {110, 140}, {110, 140}, {110, 140}}), 70.0);
  // Children spilling past the span only count inside it.
  EXPECT_DOUBLE_EQ(SelfTime(op, {{50, 120}, {190, 260}}), 70.0);
  // A child outside the span costs nothing.
  EXPECT_DOUBLE_EQ(SelfTime(op, {{300, 400}}), 100.0);
  EXPECT_DOUBLE_EQ(CoveredLength(op, {{0, 1000}}), 100.0);
}

TEST(Rates, UseDecimalMegabytesAndGuardEmptyBases) {
  EXPECT_DOUBLE_EQ(MBps(64'000'000, 2.0), 32.0);
  EXPECT_DOUBLE_EQ(MBps(64ull << 20, 1.0), 67.108864);  // 64 MiB is 67.1 MB
  EXPECT_DOUBLE_EQ(MBps(1000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 0.0), 0.0);
}

}  // namespace
}  // namespace perfbench
