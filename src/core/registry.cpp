#include "src/core/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/analysis/trends.hpp"
#include "src/analysis/users.hpp"
#include "src/core/fidelity.hpp"
#include "src/hpm/events.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/csv.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::core {
namespace {

/// snprintf onto the end of a string.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

std::string run_summary(Sp2Simulation& sim) {
  const workload::CampaignResult& c = sim.campaign();
  const analysis::Fig1Series f1 = sim.fig1();
  const double peak_gflops =
      c.num_nodes * util::MachineClock::kPeakMflopsPerNode / 1000.0;
  const power2::RunResult mm = sim.run_kernel(workload::blocked_matmul());
  std::string out =
      "================================================================\n"
      "SP2 Workload Measurement Report (simulated RS2HPM campaign)\n"
      "================================================================\n";
  appendf(out, "Machine: %d nodes, %lld days monitored\n", c.num_nodes,
          static_cast<long long>(c.days));
  appendf(out,
          "Mean daily system performance: %.2f Gflops (%.1f%% of %.1f Gflops "
          "peak)\n",
          f1.mean_gflops, 100.0 * f1.mean_gflops / peak_gflops, peak_gflops);
  appendf(out, "Mean utilization: %.0f%% (best day %.0f%%)\n",
          100.0 * f1.mean_utilization, 100.0 * f1.max_daily_utilization);
  appendf(out,
          "Jobs completed: %zu; time-weighted batch rate %.1f Mflops/node\n",
          c.jobs.size(), c.jobs.time_weighted_mflops_per_node());
  appendf(out,
          "Single-processor blocked matmul: %.1f Mflops (%.0f%% of peak), "
          "%.2f flops/memref\n\n",
          mm.mflops(),
          100.0 * mm.mflops() / util::MachineClock::kPeakMflopsPerNode,
          static_cast<double>(mm.counts.flops()) /
              static_cast<double>(mm.counts.fxu_inst()));

  out += "-- monthly summary ----------------------------------------------\n";
  appendf(out, "  %-6s %6s %10s %10s %12s %14s\n", "month", "days", "Gflops",
          "max", "util", "Mflops/node");
  for (const analysis::MonthStats& m : analysis::monthly_stats(sim.days())) {
    appendf(out, "  %-6d %6d %10.2f %10.2f %11.0f%% %14.1f\n", m.month,
            m.days, m.mean_gflops, m.max_gflops, 100.0 * m.mean_utilization,
            m.mean_mflops_per_node);
  }
  return out;
}

std::string run_table1(Sp2Simulation&) {
  std::string out = "Table 1: NAS SP2 RS2HPM Counters\n";
  appendf(out, "  %-22s %-9s %s\n", "Counter Label", "Slot", "Description");
  for (const hpm::CounterInfo& info : hpm::counter_table()) {
    appendf(out, "  %-22s %-9s %s\n", std::string(info.label).c_str(),
            std::string(info.slot).c_str(),
            std::string(info.description).c_str());
  }
  return out;
}

std::string run_fig1(Sp2Simulation& sim) {
  const analysis::Fig1Series f = sim.fig1();
  std::ostringstream os;
  os << "Figure 1 (system performance history): " << f.day.size()
     << " days, mean " << f.mean_gflops << " Gflops, peak "
     << f.max_daily_gflops << " Gflops, mean utilization "
     << f.mean_utilization << ", max utilization " << f.max_daily_utilization
     << ", trend slope " << f.trend_slope << " Gflops/day\n";
  std::vector<double> util_scaled;
  for (double u : f.utilization_moving_avg) util_scaled.push_back(4.0 * u);
  os << util::render_chart(
      {{"daily Gflops", f.day, f.daily_gflops, '.'},
       {"moving average", f.day, f.gflops_moving_avg, 'o'},
       {"utilization moving avg (x4 Gflops scale)", f.day, util_scaled, 'u'}},
      {72, 18, "System Performance (Gflops) vs day", "day of campaign",
       "Gflops"});
  return os.str();
}

std::string run_fig2(Sp2Simulation& sim) {
  const analysis::Fig2Series f = sim.fig2();
  std::ostringstream os;
  os << "Figure 2 (walltime by node count): most popular request "
     << f.most_popular_nodes << " nodes; fraction of walltime beyond 64 "
     << f.walltime_beyond_64_fraction << "\n";
  for (const analysis::Fig2Bin& b : f.bins) {
    os << "  " << b.nodes << " nodes: " << b.jobs << " jobs, "
       << b.total_walltime_s << " s\n";
  }
  return os.str();
}

std::string run_fig3(Sp2Simulation& sim) {
  const analysis::Fig3Series f = sim.fig3();
  util::Series mean{"mean Mflops/node", {}, {}, 'o'};
  util::Series best{"best job in bin", {}, {}, '+'};
  double peak = 0.0;
  for (const analysis::Fig3Bin& b : f.bins) {
    mean.xs.push_back(b.nodes);
    mean.ys.push_back(b.mean_mflops_per_node);
    best.xs.push_back(b.nodes);
    best.ys.push_back(b.max_mflops_per_node);
    peak = std::max(peak, b.max_mflops_per_node);
  }
  std::ostringstream os;
  os << "Figure 3 (Mflops/node by node count): mean <=64 nodes "
     << f.mean_upto_64 << ", beyond 64 " << f.mean_beyond_64
     << ", best job " << peak << "\n";
  os << util::render_chart({mean, best},
                           {72, 20, "Performance (Mflops per node) vs nodes",
                            "nodes requested", "Mflops/node"});
  return os.str();
}

std::string run_fig4(Sp2Simulation& sim) {
  const analysis::Fig4Series f = sim.fig4();
  std::ostringstream os;
  os << "Figure 4 (" << f.node_count << "-node job history): "
     << f.job_seq.size() << " jobs, mean " << f.mean << " Mflops, stddev "
     << f.stddev << ", trend slope " << f.trend_slope << "\n";
  os << util::render_chart(
      {{"16-node job rate", f.job_seq, f.job_mflops, '.'},
       {"moving average", f.job_seq, f.moving_avg, 'o'}},
      {72, 16, "Job performance rate (Mflops) vs batch job number",
       "16-node batch job number (start order)", "job Mflops"});
  return os.str();
}

std::string run_fig5(Sp2Simulation& sim) {
  const analysis::Fig5Series f = sim.fig5();
  std::ostringstream os;
  os << "Figure 5 (paging diagnostic): " << f.mflops_per_node.size()
     << " days, correlation " << f.correlation
     << ", Mflops/node on low-intervention days "
     << fig5_intervention_mean(f, /*low=*/true) << ", on high-intervention "
     << "days " << fig5_intervention_mean(f, /*low=*/false) << "\n";
  os << util::render_chart(
      {{"one point per day", f.sys_user_fxu_ratio, f.mflops_per_node, '*'}},
      {72, 20, "Mflops per node vs (system FXU)/(user FXU)",
       "system/user FXU instruction ratio", "Mflops per node"});
  return os.str();
}

/// Columns of equal length as CSV under `header`.
std::string columns_csv(const std::vector<std::string>& header,
                        const std::vector<std::vector<double>>& columns) {
  std::ostringstream os;
  util::CsvWriter w(os);
  w.row(header);
  for (std::size_t i = 0; i < columns.front().size(); ++i) {
    for (const std::vector<double>& c : columns) w.field(c[i]);
    w.endrow();
  }
  return os.str();
}

std::string csv_fig1(Sp2Simulation& sim) {
  const analysis::Fig1Series f = sim.fig1();
  return columns_csv({"day", "gflops", "gflops_ma", "utilization_ma"},
                     {f.day, f.daily_gflops, f.gflops_moving_avg,
                      f.utilization_moving_avg});
}

std::string csv_fig2(Sp2Simulation& sim) {
  std::vector<std::vector<double>> cols(3);
  for (const analysis::Fig2Bin& b : sim.fig2().bins) {
    cols[0].push_back(b.nodes);
    cols[1].push_back(b.total_walltime_s);
    cols[2].push_back(b.jobs);
  }
  return columns_csv({"nodes", "walltime_s", "jobs"}, cols);
}

std::string csv_fig3(Sp2Simulation& sim) {
  std::vector<std::vector<double>> cols(4);
  for (const analysis::Fig3Bin& b : sim.fig3().bins) {
    cols[0].push_back(b.nodes);
    cols[1].push_back(b.mean_mflops_per_node);
    cols[2].push_back(b.max_mflops_per_node);
    cols[3].push_back(b.jobs);
  }
  return columns_csv(
      {"nodes", "mean_mflops_per_node", "max_mflops_per_node", "jobs"}, cols);
}

std::string csv_fig4(Sp2Simulation& sim) {
  const analysis::Fig4Series f = sim.fig4();
  return columns_csv({"job_seq", "job_mflops", "moving_avg"},
                     {f.job_seq, f.job_mflops, f.moving_avg});
}

std::string csv_fig5(Sp2Simulation& sim) {
  const analysis::Fig5Series f = sim.fig5();
  return columns_csv({"sys_user_fxu_ratio", "mflops_per_node"},
                     {f.sys_user_fxu_ratio, f.mflops_per_node});
}

std::string run_users(Sp2Simulation& sim) {
  const std::vector<analysis::UserStats> users =
      analysis::user_stats(sim.campaign().jobs);
  std::string out;
  appendf(out, "  %-8s %6s %12s %14s %10s\n", "user", "jobs", "node-hours",
          "Mflops/node", "best");
  const std::size_t top = std::min<std::size_t>(10, users.size());
  for (std::size_t i = 0; i < top; ++i) {
    const analysis::UserStats& u = users[i];
    appendf(out, "  %-8d %6d %12.0f %14.1f %10.1f\n", u.user_id, u.jobs,
            u.node_hours, u.mflops_per_node, u.best_mflops_per_node);
  }
  appendf(out, "  (top 10 of %zu users hold %.0f%% of node-hours)\n",
          users.size(), 100.0 * analysis::top_n_node_hour_share(users, 10));
  return out;
}

/// Every entry registered before `report`, in order.
std::string run_report(Sp2Simulation& sim) {
  std::string out;
  for (const Experiment& e : experiments()) {
    if (e.name == "report") break;
    out += render(e, sim);
  }
  return out;
}

std::string run_fault_campaign(Sp2Simulation& sim) {
  // The caller's campaign next to its reference-outage twin: what the
  // degradation-tolerant pipeline recovers.
  Sp2Simulation& faulted = sim.faulted();
  std::ostringstream os;
  os << "=== Fault-free Table 2 ===\n"
     << analysis::format_table2(sim.table2()) << '\n'
     << "=== Faulted Table 2 (reference outage profile) ===\n"
     << analysis::format_table2(faulted.table2()) << '\n'
     << analysis::format_measurement_loss(faulted.measurement_loss());
  return os.str();
}

std::vector<Experiment> build_registry() {
  using Sim = Sp2Simulation;
  return {
      {"summary", "campaign summary and monthly breakdown", run_summary, {}},
      {"table1", "the 22-counter RS2HPM selection", run_table1, {}},
      {"table2", "sustained system rates (Mips/Mops/Mflops)",
       [](Sim& s) { return analysis::format_table2(s.table2()); }, {}},
      {"table3", "detailed per-node rate breakdown",
       [](Sim& s) { return analysis::format_table3(s.table3()); }, {}},
      {"table4", "memory-hierarchy ratios vs reference kernels",
       [](Sim& s) { return analysis::format_table4(s.table4()); }, {}},
      {"fig1", "daily Gflops / utilization history", run_fig1, csv_fig1},
      {"fig2", "batch jobs: walltime by node count", run_fig2, csv_fig2},
      {"fig3", "batch jobs: Mflops/node by node count", run_fig3, csv_fig3},
      {"fig4", "batch jobs: 16-node job history", run_fig4, csv_fig4},
      {"fig5", "system intervention: the paging diagnostic", run_fig5,
       csv_fig5},
      {"trends", "day-level trends and correlations (section 5)",
       [](Sim& s) {
         return analysis::format_trends(analysis::analyze_trends(s.days()));
       },
       {}},
      {"users", "heaviest users by node-hours", run_users, {}},
      {"report", "the full measurement report (every entry above)",
       run_report, {}},
      {"loss", "measurement-loss audit of the campaign",
       [](Sim& s) {
         return analysis::format_measurement_loss(s.measurement_loss());
       },
       {}},
      {"fault_campaign",
       "reference fault campaign: faulted Table 2 + loss report",
       run_fault_campaign, {}},
      {"paper", "paper-fidelity table: every claim vs its band, shape or pin",
       [](Sim& s) { return format_claims(evaluate_claims(s)); }, {}},
  };
}

}  // namespace

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> registry = build_registry();
  return registry;
}

const Experiment* find_experiment(std::string_view name) {
  for (const Experiment& e : experiments()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string render(const Experiment& e, Sp2Simulation& sim) {
  return "--- " + e.name + ": " + e.description + " ---\n" + e.run(sim) +
         "\n";
}

}  // namespace p2sim::core
