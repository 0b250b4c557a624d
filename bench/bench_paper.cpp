// The paper-fidelity gate: runs the paper-scale campaign (144 nodes, 270
// days) and its reference-fault twin once each, and checks every row of
// the claims table (src/core/fidelity.hpp) on them.  Prints the table
// through the registry's `paper` experiment, writes it to BENCH_paper.md
// (the generated block of EXPERIMENTS.md) and the per-claim results to
// BENCH_paper.json, then times the analysis kernels behind the tables
// and figures.  Exits nonzero when any claim fails.
//
//   ./build/bench/bench_paper --benchmark_filter=none   # the gate alone
#include "bench/common.hpp"

#include <cmath>

#include "src/analysis/loss.hpp"
#include "src/analysis/tables.hpp"
#include "src/analysis/trends.hpp"
#include "src/analysis/users.hpp"
#include "src/core/fidelity.hpp"
#include "src/core/registry.hpp"
#include "src/hpm/monitor.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/derived.hpp"
#include "src/util/stats.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::bench {

/// The paper-scale simulation, constructed on first use and shared by the
/// gate and every timing.
core::Sp2Simulation& paper_sim() {
  static core::Sp2Simulation sim{core::Sp2Config{}};
  return sim;
}

}  // namespace p2sim::bench

namespace {

using namespace p2sim;

core::Sp2Simulation& faulted_sim() { return bench::paper_sim().faulted(); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void write_json(const std::vector<core::ClaimResult>& results, int failed) {
  std::ofstream out("BENCH_paper.json");
  out << "{\n  \"failed\": " << failed << ",\n  \"claims\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::ClaimResult& r = results[i];
    const core::Claim& c = *r.claim;
    out << "    {\"id\": \"" << c.id << "\", \"kind\": \""
        << core::to_string(c.kind) << "\", \"paper\": "
        << json_number(c.paper) << ", \"measured\": "
        << json_number(r.measured);
    if (c.kind != core::ClaimKind::kShape) {
      out << ", \"" << (c.kind == core::ClaimKind::kBand ? "band" : "pin")
          << "\": [" << json_number(r.lo) << ", " << json_number(r.hi)
          << "]";
    }
    out << ", \"pass\": " << (r.pass ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int report() {
  bench::banner("Paper fidelity: every claim against its band, shape or pin",
                "Tables 1-4, Figures 1-5 and section 5");
  core::Sp2Simulation& sim = bench::paper_sim();
  const std::string table = core::find_experiment("paper")->run(sim);
  std::printf("%s\n", table.c_str());
  std::ofstream("BENCH_paper.md") << table;

  const std::vector<core::ClaimResult> results = core::evaluate_claims(sim);
  int failed = 0;
  for (const core::ClaimResult& r : results) {
    if (r.pass) continue;
    ++failed;
    std::printf("  FAIL %s: measured %.6g\n", r.claim->id.c_str(), r.measured);
  }
  write_json(results, failed);
  std::printf("  %zu claims, %d failed (BENCH_paper.md, BENCH_paper.json)\n",
              results.size(), failed);
  return failed;
}

void BM_MonitorAccumulate(benchmark::State& state) {
  hpm::PerformanceMonitor mon;
  power2::EventCounts ev;
  ev.cycles = 1'000'000;
  ev.fxu0_inst = 200'000;
  ev.fxu1_inst = 260'000;
  ev.fp_add0 = 90'000;
  ev.fp_fma0 = 50'000;
  ev.dma_read = 100;
  for (auto _ : state) {
    mon.accumulate(ev, hpm::PrivilegeMode::kUser);
    benchmark::DoNotOptimize(mon);
  }
}
BENCHMARK(BM_MonitorAccumulate);

void BM_CounterBankWrap(benchmark::State& state) {
  hpm::CounterBank bank;
  for (auto _ : state) {
    bank.add(hpm::HpmCounter::kUserCycles, 0x80000001u);
    benchmark::DoNotOptimize(bank.read(hpm::HpmCounter::kUserCycles));
  }
}
BENCHMARK(BM_CounterBankWrap);

void BM_MakeTable2(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.days();  // campaign + daily stats amortized outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.table2());
  }
}
BENCHMARK(BM_MakeTable2);

void BM_DailyAggregation(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  const auto& campaign = sim.campaign();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::daily_stats(campaign));
  }
}
BENCHMARK(BM_DailyAggregation);

void BM_DeriveRates(benchmark::State& state) {
  rs2hpm::ModeTotals delta;
  for (std::size_t i = 0; i < hpm::kNumCounters; ++i) {
    delta.user[i] = 1'000'000 + i;
    delta.system[i] = 10'000 + i;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs2hpm::derive_rates(delta, 900.0, 12345));
  }
}
BENCHMARK(BM_DeriveRates);

void BM_MakeTable3(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.days();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.table3());
  }
}
BENCHMARK(BM_MakeTable3);

void BM_SequentialSweepSignature(benchmark::State& state) {
  const power2::KernelDesc k = workload::sequential_sweep();
  for (auto _ : state) {
    power2::Power2Core core;
    benchmark::DoNotOptimize(power2::measure_signature(core, k));
  }
}
BENCHMARK(BM_SequentialSweepSignature);

void BM_NpbBtSignature(benchmark::State& state) {
  const power2::KernelDesc k = workload::npb_bt_like();
  for (auto _ : state) {
    power2::Power2Core core;
    benchmark::DoNotOptimize(power2::measure_signature(core, k));
  }
}
BENCHMARK(BM_NpbBtSignature);

void BM_MakeFig1(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.days();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.fig1());
  }
}
BENCHMARK(BM_MakeFig1);

void BM_MovingAverage270Days(benchmark::State& state) {
  std::vector<double> xs(270);
  for (int i = 0; i < 270; ++i) xs[static_cast<std::size_t>(i)] = i % 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::moving_average(xs, 14));
  }
}
BENCHMARK(BM_MovingAverage270Days);

void BM_MakeFig2(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.campaign();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.fig2());
  }
}
BENCHMARK(BM_MakeFig2);

void BM_MakeFig3(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.campaign();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.fig3());
  }
}
BENCHMARK(BM_MakeFig3);

void BM_MakeFig4(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.campaign();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.fig4(16));
  }
}
BENCHMARK(BM_MakeFig4);

void BM_MakeFig5(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  sim.days();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.fig5());
  }
}
BENCHMARK(BM_MakeFig5);

void BM_BlockedMatmulSimulation(benchmark::State& state) {
  const power2::KernelDesc k = workload::blocked_matmul();
  for (auto _ : state) {
    power2::Power2Core core;
    benchmark::DoNotOptimize(core.run(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k.measure_iters) *
                          static_cast<std::int64_t>(k.body.size()));
}
BENCHMARK(BM_BlockedMatmulSimulation);

void BM_CfdSignature(benchmark::State& state) {
  const power2::KernelDesc k = workload::cfd_multiblock(1, 0.3);
  for (auto _ : state) {
    power2::Power2Core core;
    benchmark::DoNotOptimize(power2::measure_signature(core, k));
  }
}
BENCHMARK(BM_CfdSignature);

void BM_AnalyzeTrends(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  const auto& days = sim.days();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_trends(days));
  }
}
BENCHMARK(BM_AnalyzeTrends);

void BM_UserStats(benchmark::State& state) {
  auto& sim = bench::paper_sim();
  const auto& jobs = sim.campaign().jobs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::user_stats(jobs));
  }
}
BENCHMARK(BM_UserStats);

void BM_FaultScheduleQueries(benchmark::State& state) {
  const fault::FaultSchedule sched(fault::FaultConfig::reference());
  std::int64_t t = 0;
  for (auto _ : state) {
    bool hit = false;
    for (int n = 0; n < 144; ++n) {
      hit ^= sched.node_crashes(n, t);
      hit ^= sched.node_sample_lost(n, t);
    }
    benchmark::DoNotOptimize(hit);
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * 288);
}
BENCHMARK(BM_FaultScheduleQueries);

void BM_MeasureLoss(benchmark::State& state) {
  const workload::CampaignResult& result = faulted_sim().campaign();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::measure_loss(result));
  }
}
BENCHMARK(BM_MeasureLoss);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const int failed = report();
  std::printf("\n-- timings --\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return failed == 0 ? 0 : 1;
}
