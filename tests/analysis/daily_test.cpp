#include "src/analysis/daily.hpp"

#include <gtest/gtest.h>

#include "src/util/sim_time.hpp"

namespace p2sim::analysis {
namespace {

using hpm::HpmCounter;
using rs2hpm::IntervalRecord;

// A synthetic one-day, two-node campaign with known counter totals.
workload::CampaignResult synthetic_campaign() {
  workload::CampaignResult r;
  r.num_nodes = 2;
  r.days = 2;
  for (std::int64_t t = 0; t < 2 * util::kIntervalsPerDay; ++t) {
    IntervalRecord rec;
    rec.interval = t;
    rec.nodes_sampled = 2;
    rec.busy_nodes = (t < util::kIntervalsPerDay) ? 2 : 1;
    // 9e8 adds per interval machine-wide on day 0, half that on day 1.
    const std::uint64_t adds = (t < util::kIntervalsPerDay) ? 900'000'000u
                                                            : 450'000'000u;
    rec.delta.user[hpm::index_of(HpmCounter::kFpAdd0)] = adds;
    rec.delta.user[hpm::index_of(HpmCounter::kUserFxu0)] = adds;
    rec.delta.system[hpm::index_of(HpmCounter::kUserFxu0)] = adds / 10;
    r.intervals.push_back(rec);
  }
  r.total_busy_node_seconds = 3 * 86400.0;
  return r;
}

TEST(Daily, OneStatPerDay) {
  const auto days = daily_stats(synthetic_campaign());
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].day, 0);
  EXPECT_EQ(days[1].day, 1);
}

TEST(Daily, PerNodeRatesUseElapsedNodeTime) {
  const auto days = daily_stats(synthetic_campaign());
  // Day 0: 96 * 9e8 adds over 2 nodes * 86400 s
  //      = 8.64e10 / 1.728e5 s-node = 500,000 adds/s/node = 0.5 Mflops.
  EXPECT_NEAR(days[0].per_node.mflops_all, 0.5, 1e-9);
  EXPECT_NEAR(days[1].per_node.mflops_all, 0.25, 1e-9);
}

TEST(Daily, SystemGflopsScalesByNodes) {
  const auto days = daily_stats(synthetic_campaign());
  EXPECT_NEAR(days[0].gflops, 0.5 * 2 / 1000.0, 1e-12);
}

TEST(Daily, UtilizationFromBusyNodes) {
  const auto days = daily_stats(synthetic_campaign());
  EXPECT_NEAR(days[0].utilization, 1.0, 1e-12);
  EXPECT_NEAR(days[1].utilization, 0.5, 1e-12);
}

TEST(Daily, SystemUserRatioSurvivesAggregation) {
  const auto days = daily_stats(synthetic_campaign());
  EXPECT_NEAR(days[0].per_node.system_user_fxu_ratio, 0.1, 1e-9);
}

TEST(Daily, EmptyCampaignYieldsNothing) {
  workload::CampaignResult r;
  EXPECT_TRUE(daily_stats(r).empty());
}

TEST(FilterDays, ThresholdIsStrict) {
  std::vector<DayStats> days(3);
  days[0].gflops = 1.9;
  days[1].gflops = 2.0;
  days[2].gflops = 2.1;
  const auto f = filter_days(days, 2.0);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NEAR(f[0].gflops, 2.1, 1e-12);
}

TEST(RepresentativeDay, PicksTheMedianPerformer) {
  std::vector<DayStats> days(5);
  for (int i = 0; i < 5; ++i) {
    days[static_cast<std::size_t>(i)].day = i;
    days[static_cast<std::size_t>(i)].per_node.mflops_all = 10.0 + i;
  }
  EXPECT_EQ(representative_day_index(days), 2u);
  EXPECT_EQ(representative_day_index({}), 0u);
}

TEST(Monthly, SplitsDaysIntoMonths) {
  std::vector<DayStats> days(70);
  for (int i = 0; i < 70; ++i) {
    days[static_cast<std::size_t>(i)].day = i;
    days[static_cast<std::size_t>(i)].gflops = 1.0 + (i / 30);
    days[static_cast<std::size_t>(i)].utilization = 0.5;
  }
  const auto months = monthly_stats(days, 30);
  ASSERT_EQ(months.size(), 3u);
  EXPECT_EQ(months[0].days, 30);
  EXPECT_EQ(months[1].days, 30);
  EXPECT_EQ(months[2].days, 10);
  EXPECT_NEAR(months[0].mean_gflops, 1.0, 1e-9);
  EXPECT_NEAR(months[1].mean_gflops, 2.0, 1e-9);
  EXPECT_NEAR(months[2].mean_gflops, 3.0, 1e-9);
}

TEST(Monthly, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(monthly_stats({}, 30).empty());
  EXPECT_TRUE(monthly_stats(std::vector<DayStats>(5), 0).empty());
}

}  // namespace
}  // namespace p2sim::analysis
