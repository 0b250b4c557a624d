// Daily aggregation of the interval records — the unit of analysis for
// Figure 1, Tables 2-4 and Figure 5.
//
// The paper's table rates are *single-node* values over elapsed time
// ("system rates may be obtained by multiplying by 144"), averaged over
// whole days; the >2.0 Gflops day filter (30 of 270 days in the paper)
// removes high-idle days before computing Table 2/3 statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "src/rs2hpm/derived.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::analysis {

struct DayStats {
  std::int64_t day = 0;
  /// System performance in Gflops (all nodes, elapsed time).
  double gflops = 0.0;
  /// Fraction of node-time servicing PBS jobs.
  double utilization = 0.0;
  /// Per-node rates over elapsed time (Table 2/3 units).
  rs2hpm::DerivedRates per_node;
  /// Fraction of the day's node-samples the daemon actually delivered
  /// (1.0 on a fault-free day; missed intervals, unreachable nodes and
  /// re-primed baselines all reduce it).
  double coverage = 1.0;
  /// 15-minute records present for this day (96 when none were missed).
  int intervals_recorded = 0;
};

/// Collapses interval records into per-day statistics.  Rates are formed
/// over *covered* node-seconds, so partially measured days estimate the
/// same per-node quantity instead of being biased low; on a fully covered
/// day the denominator is bit-identical to elapsed-time accounting.
std::vector<DayStats> daily_stats(const workload::CampaignResult& result);

/// The paper's filter: days with system performance above the threshold.
/// `min_coverage` additionally drops days too lossy to trust (the paper
/// analyzed only 30 of 270 days, partly for this reason).
std::vector<DayStats> filter_days(const std::vector<DayStats>& days,
                                  double min_gflops = 2.0,
                                  double min_coverage = 0.0);

/// Index of the day whose Mflops is the median of the filtered sample —
/// used as the "representative single day" column of Tables 2 and 3.
std::size_t representative_day_index(const std::vector<DayStats>& days);

/// Per-calendar-month aggregates (30-day months over the campaign).
struct MonthStats {
  int month = 0;  ///< 0-based month index
  double mean_gflops = 0.0;
  double max_gflops = 0.0;
  double mean_utilization = 0.0;
  double mean_mflops_per_node = 0.0;
  int days = 0;
};

std::vector<MonthStats> monthly_stats(const std::vector<DayStats>& days,
                                      int days_per_month = 30);

}  // namespace p2sim::analysis
