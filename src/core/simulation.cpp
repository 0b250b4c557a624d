#include "src/core/simulation.hpp"

#include "src/check/check.hpp"

namespace p2sim::core {

Sp2Config Sp2Config::small(std::int64_t days, int nodes) {
  Sp2Config cfg;
  cfg.driver.days = days;
  cfg.driver.num_nodes = nodes;
  // Scale demand with machine size so utilization stays in the paper's
  // regime.
  cfg.driver.jobs_per_day =
      cfg.driver.jobs_per_day * nodes / 144.0;
  // Narrow machines cannot host the widest requests.
  auto& choices = cfg.driver.jobgen.node_choices;
  auto& weights = cfg.driver.jobgen.node_weights;
  std::vector<int> nc;
  std::vector<double> nw;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] <= nodes) {
      nc.push_back(choices[i]);
      nw.push_back(weights[i]);
    }
  }
  choices = std::move(nc);
  weights = std::move(nw);
  cfg.driver.sched.drain_threshold_nodes =
      std::min(cfg.driver.sched.drain_threshold_nodes, nodes / 2);
  // Keep the Table 2/3 day filter at the same per-node severity as the
  // paper's 2.0 Gflops on 144 nodes.
  cfg.table_min_gflops = 2.0 * nodes / 144.0;
  return cfg;
}

Sp2Simulation::Sp2Simulation(Sp2Config cfg) : cfg_(std::move(cfg)) {}

const workload::CampaignResult& Sp2Simulation::campaign() {
  if (!result_.has_value()) {
    result_ = workload::run_campaign(cfg_.driver);
    P2SIM_CHECK(result_->mean_utilization() >= 0.0 &&
                    result_->mean_utilization() <= 1.000001,
                "campaign utilization must be a fraction of node-time");
  }
  return *result_;
}

const std::vector<analysis::DayStats>& Sp2Simulation::days() {
  if (!days_.has_value()) {
    days_ = analysis::daily_stats(campaign());
  }
  return *days_;
}

analysis::Table2 Sp2Simulation::table2() {
  return analysis::make_table2(days(), cfg_.table_min_gflops,
                               cfg_.table_min_coverage);
}

analysis::Table3 Sp2Simulation::table3() {
  return analysis::make_table3(days(), cfg_.table_min_gflops,
                               cfg_.table_min_coverage);
}

analysis::Table4 Sp2Simulation::table4() {
  return analysis::make_table4(days(), cfg_.driver.core,
                               cfg_.table_min_gflops,
                               cfg_.table_min_coverage);
}

analysis::Fig1Series Sp2Simulation::fig1(std::size_t ma_window) {
  return analysis::make_fig1(days(), ma_window);
}

analysis::Fig2Series Sp2Simulation::fig2() {
  return analysis::make_fig2(campaign().jobs);
}

analysis::Fig3Series Sp2Simulation::fig3() {
  return analysis::make_fig3(campaign().jobs);
}

analysis::Fig4Series Sp2Simulation::fig4(int node_count) {
  return analysis::make_fig4(campaign().jobs, node_count);
}

analysis::Fig5Series Sp2Simulation::fig5() {
  return analysis::make_fig5(days());
}

analysis::MeasurementLoss Sp2Simulation::measurement_loss() {
  return analysis::measure_loss(campaign(), cfg_.table_min_coverage);
}

Sp2Simulation& Sp2Simulation::faulted() {
  if (faulted_ == nullptr) {
    Sp2Config cfg = cfg_;
    cfg.faults() = fault::FaultConfig::reference();
    // The caller's archive and checkpoints belong to the caller's campaign.
    cfg.archive().clear();
    cfg.checkpoint() = {};
    faulted_ = std::make_unique<Sp2Simulation>(std::move(cfg));
  }
  return *faulted_;
}

power2::RunResult Sp2Simulation::run_kernel(
    const power2::KernelDesc& kernel) const {
  power2::Power2Core core(cfg_.driver.core);
  return core.run(kernel);
}

}  // namespace p2sim::core
