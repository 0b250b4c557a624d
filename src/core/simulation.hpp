// Public facade: one object that owns a simulated campaign and serves every
// table and figure from it.
//
// Typical use (see examples/quickstart.cpp):
//
//   p2sim::core::Sp2Simulation sim;          // default: the paper's setup
//   auto t2 = sim.table2();                  // runs the campaign lazily
//   std::cout << p2sim::analysis::format_table2(t2);
//
// The campaign is deterministic in the configuration (seed included), so
// every accessor is consistent with every other.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/daily.hpp"
#include "src/analysis/figures.hpp"
#include "src/analysis/loss.hpp"
#include "src/analysis/tables.hpp"
#include "src/power2/core.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::core {

/// Top-level configuration; wraps the campaign driver configuration and the
/// analysis parameters.
struct Sp2Config {
  workload::DriverConfig driver{};
  /// Day filter threshold for Tables 2-4 (the paper's 2.0 Gflops).
  double table_min_gflops = 2.0;
  /// Days measured below this coverage are dropped from the table sample
  /// (moot on fault-free campaigns, where every day is fully covered).
  double table_min_coverage = 0.9;

  /// The fault-injection knob (defaults to disabled).
  fault::FaultConfig& faults() { return driver.faults; }
  const fault::FaultConfig& faults() const { return driver.faults; }

  /// Worker threads for the driver's parallel phases (results are
  /// bit-identical for every value; see workload::DriverConfig::threads).
  int& threads() { return driver.threads; }
  int threads() const { return driver.threads; }

  /// Persistent signature-store file (empty = off); store hits are
  /// bit-identical to fresh measurement.  See
  /// workload::DriverConfig::signature_store_path.
  std::string& signature_store() { return driver.signature_store_path; }
  const std::string& signature_store() const {
    return driver.signature_store_path;
  }

  /// Durable checkpoint/restart (off by default; a resumed campaign is
  /// bit-identical to an uninterrupted one).  See
  /// workload::DriverConfig::checkpoint.
  workload::CheckpointConfig& checkpoint() { return driver.checkpoint; }
  const workload::CheckpointConfig& checkpoint() const {
    return driver.checkpoint;
  }

  /// Columnar campaign archive destination (empty = off); the driver
  /// batch-appends every interval and job record and commits the file
  /// durably at campaign end.  Bytes are identical for every thread
  /// count.  See workload::DriverConfig::archive_path.
  std::string& archive() { return driver.archive_path; }
  const std::string& archive() const { return driver.archive_path; }

  /// A scaled-down campaign for tests and quick demos: fewer days, fewer
  /// nodes, same physics.
  static Sp2Config small(std::int64_t days = 30, int nodes = 32);
};

class Sp2Simulation {
 public:
  explicit Sp2Simulation(Sp2Config cfg = {});

  /// The full campaign result (runs it on first call).
  const workload::CampaignResult& campaign();
  /// Per-day aggregates.
  const std::vector<analysis::DayStats>& days();

  analysis::Table2 table2();
  analysis::Table3 table3();
  analysis::Table4 table4();
  analysis::Fig1Series fig1(std::size_t ma_window = 14);
  analysis::Fig2Series fig2();
  analysis::Fig3Series fig3();
  analysis::Fig4Series fig4(int node_count = 16);
  analysis::Fig5Series fig5();
  /// How much of the campaign was measured and where the rest went
  /// (trivially all-zero-loss on a fault-free campaign).
  analysis::MeasurementLoss measurement_loss();

  /// The same campaign under the reference outage profile
  /// (fault::FaultConfig::reference()), built on first call and kept.  It
  /// writes no archive and no checkpoints.
  Sp2Simulation& faulted();

  /// Runs one kernel on a fresh core with the campaign's core config —
  /// the paper's single-processor calibration measurements.
  power2::RunResult run_kernel(const power2::KernelDesc& kernel) const;

  const Sp2Config& config() const { return cfg_; }

 private:
  Sp2Config cfg_;
  std::optional<workload::CampaignResult> result_;
  std::optional<std::vector<analysis::DayStats>> days_;
  std::unique_ptr<Sp2Simulation> faulted_;
};

}  // namespace p2sim::core
