// The registry is the one renderer of every artifact: each experiment
// renders on a tiny campaign, `report` concatenates the sections, and
// `paper` prints the fidelity table.
#include "src/core/registry.hpp"

#include <gtest/gtest.h>

#include "src/core/fidelity.hpp"

namespace p2sim::core {
namespace {

Sp2Config tiny_config() {
  Sp2Config cfg;
  cfg.driver.num_nodes = 12;
  cfg.driver.days = 8;
  cfg.driver.jobs_per_day = 5.0;
  cfg.driver.jobgen.node_choices = {1, 2, 4, 8};
  cfg.driver.jobgen.node_weights = {4, 3, 6, 14};
  cfg.driver.sched.drain_threshold_nodes = 6;
  cfg.table_min_gflops = 0.0;
  return cfg;
}

class Registry : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { sim_ = new Sp2Simulation(tiny_config()); }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }
  static Sp2Simulation* sim_;
};

Sp2Simulation* Registry::sim_ = nullptr;

TEST_F(Registry, EveryExperimentRendersOnATinyCampaign) {
  for (const Experiment& e : experiments()) {
    EXPECT_FALSE(e.run(*sim_).empty()) << e.name;
    if (e.csv) {
      EXPECT_FALSE(e.csv(*sim_).empty()) << e.name;
    }
  }
}

// The `report` entry: the campaign summary every section follows.
class Report : public Registry {};

TEST_F(Report, BuildsFromACampaign) {
  const std::string text = find_experiment("report")->run(*sim_);
  for (const char* needle :
       {"Machine: 12 nodes, 8 days monitored",
        "Figure 1 (system performance history): 8 days"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(sim_->fig1().day.size(), 8u);
  EXPECT_FALSE(analysis::monthly_stats(sim_->days()).empty());
  EXPECT_GT(sim_->campaign().jobs.size(), 0u);
  EXPECT_EQ(sim_->table3().rows.size(), 17u);
}

TEST_F(Report, FormatsEverySection) {
  const std::string text = find_experiment("report")->run(*sim_);
  for (const char* needle :
       {"Measurement Report", "monthly summary", "Table 2", "Table 3",
        "Table 4", "batch jobs", "system intervention", "day-level trends",
        "heaviest users"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Each section appears once, in the order of the registry.
  std::size_t at = 0;
  for (const char* name : {"summary", "table2", "table3", "table4", "fig1",
                           "fig2", "fig3", "fig4", "fig5", "trends",
                           "users"}) {
    const std::size_t next = text.find(std::string("--- ") + name + ": ");
    ASSERT_NE(next, std::string::npos) << name;
    EXPECT_GE(next, at) << name;
    at = next;
  }
}

TEST_F(Registry, PaperPrintsOneRowPerClaim) {
  const std::string text = find_experiment("paper")->run(*sim_);
  for (const Claim& c : claims()) {
    const std::string row = "| `" + c.id + "` |";
    const std::size_t first = text.find(row);
    ASSERT_NE(first, std::string::npos) << c.id;
    EXPECT_EQ(text.find(row, first + 1), std::string::npos) << c.id;
  }
}

TEST_F(Registry, FiguresCarryTheirSeriesAsCsv) {
  const std::pair<const char*, const char*> headers[] = {
      {"fig1", "day,gflops,gflops_ma,utilization_ma\n"},
      {"fig2", "nodes,walltime_s,jobs\n"},
      {"fig3", "nodes,mean_mflops_per_node,max_mflops_per_node,jobs\n"},
      {"fig4", "job_seq,job_mflops,moving_avg\n"},
      {"fig5", "sys_user_fxu_ratio,mflops_per_node\n"},
  };
  for (const auto& [name, header] : headers) {
    const Experiment* e = find_experiment(name);
    ASSERT_TRUE(e->csv) << name;
    EXPECT_EQ(e->csv(*sim_).rfind(header, 0), 0u) << name;
  }
}

}  // namespace
}  // namespace p2sim::core
