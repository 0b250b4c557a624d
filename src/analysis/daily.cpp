#include "src/analysis/daily.hpp"

#include <algorithm>

#include "src/util/sim_time.hpp"
#include "src/util/stats.hpp"

namespace p2sim::analysis {

std::vector<DayStats> daily_stats(const workload::CampaignResult& result) {
  std::vector<DayStats> out;
  if (result.num_nodes <= 0) return out;
  const double day_elapsed_per_node = 86400.0;

  std::vector<DayStats> days(static_cast<std::size_t>(result.days));
  std::vector<rs2hpm::ModeTotals> day_delta(
      static_cast<std::size_t>(result.days));
  std::vector<std::uint64_t> day_quads(static_cast<std::size_t>(result.days),
                                       0);
  std::vector<double> day_busy(static_cast<std::size_t>(result.days), 0.0);
  std::vector<double> day_covered_ns(static_cast<std::size_t>(result.days),
                                     0.0);
  std::vector<int> day_records(static_cast<std::size_t>(result.days), 0);

  for (const rs2hpm::IntervalRecord& rec : result.intervals) {
    if (rec.interval < 0) continue;
    const std::int64_t d = rec.interval / util::kIntervalsPerDay;
    if (d < 0 || d >= result.days) continue;
    day_delta[static_cast<std::size_t>(d)] += rec.delta;
    day_quads[static_cast<std::size_t>(d)] += rec.quad_surplus;
    day_busy[static_cast<std::size_t>(d)] +=
        static_cast<double>(rec.busy_nodes);
    // Covered node-seconds: each interval contributes 900 s per node that
    // actually delivered a clean delta.  On a fault-free day this sums to
    // exactly 86400 x num_nodes (900*144 = 129600 is exactly representable
    // and 96 equal additions stay exact), so full-coverage rates are
    // bit-identical to the elapsed-time denominator.
    day_covered_ns[static_cast<std::size_t>(d)] +=
        static_cast<double>(rec.nodes_sampled) *
        static_cast<double>(util::kIntervalSeconds);
    ++day_records[static_cast<std::size_t>(d)];
  }

  for (std::int64_t d = 0; d < result.days; ++d) {
    const auto di = static_cast<std::size_t>(d);
    DayStats s;
    s.day = d;
    const double full_ns = day_elapsed_per_node * result.num_nodes;
    // Per-node rates over covered node-seconds; an entirely unmeasured day
    // keeps the full denominator (its deltas are zero either way).
    const double denom = day_covered_ns[di] > 0.0 ? day_covered_ns[di]
                                                  : full_ns;
    s.per_node = rs2hpm::derive_rates(day_delta[di], denom, day_quads[di],
                                      result.selection);
    s.gflops = s.per_node.mflops_all * result.num_nodes / 1000.0;
    s.utilization =
        day_records[di] > 0
            ? day_busy[di] / (static_cast<double>(day_records[di]) *
                              result.num_nodes)
            : 0.0;
    s.coverage = day_covered_ns[di] / full_ns;
    s.intervals_recorded = day_records[di];
    days[di] = s;
  }
  return days;
}

std::vector<DayStats> filter_days(const std::vector<DayStats>& days,
                                  double min_gflops, double min_coverage) {
  std::vector<DayStats> out;
  for (const DayStats& d : days) {
    if (d.gflops > min_gflops && d.coverage >= min_coverage) out.push_back(d);
  }
  return out;
}

std::size_t representative_day_index(const std::vector<DayStats>& days) {
  if (days.empty()) return 0;
  std::vector<std::size_t> idx(days.size());
  for (std::size_t i = 0; i < days.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return days[a].per_node.mflops_all < days[b].per_node.mflops_all;
  });
  return idx[idx.size() / 2];
}

std::vector<MonthStats> monthly_stats(const std::vector<DayStats>& days,
                                      int days_per_month) {
  std::vector<MonthStats> out;
  if (days_per_month <= 0) return out;
  for (std::size_t i = 0; i < days.size();) {
    MonthStats m;
    m.month = static_cast<int>(out.size());
    util::RunningStats g, u, f;
    for (int d = 0; d < days_per_month && i < days.size(); ++d, ++i) {
      g.add(days[i].gflops);
      u.add(days[i].utilization);
      f.add(days[i].per_node.mflops_all);
    }
    m.mean_gflops = g.mean();
    m.max_gflops = g.max();
    m.mean_utilization = u.mean();
    m.mean_mflops_per_node = f.mean();
    m.days = static_cast<int>(g.count());
    out.push_back(m);
  }
  return out;
}

}  // namespace p2sim::analysis
