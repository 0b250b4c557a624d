#include "src/core/fidelity.hpp"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "src/analysis/trends.hpp"
#include "src/cluster/dma.hpp"
#include "src/core/registry.hpp"
#include "src/hpm/events.hpp"
#include "src/util/stats.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::core {
namespace {

using Sim = Sp2Simulation;
using Measure = std::function<double(Sim&)>;
using Holds = std::function<bool(Sim&, double)>;
using analysis::Table4;
using analysis::Table4Column;

/// The fault campaign's Table 2 Mflops stays within this fraction of the
/// fault-free run's.
constexpr double kFaultMflopsBound = 0.05;
constexpr double kPeak = util::MachineClock::kPeakMflopsPerNode;

Claim band(std::string id, double paper, std::string wording, Measure m) {
  return {std::move(id), ClaimKind::kBand, paper, std::move(wording),
          std::move(m)};
}

Claim shape(std::string id, double paper, std::string wording, Measure m,
            Holds holds) {
  return {std::move(id), ClaimKind::kShape, paper, std::move(wording),
          std::move(m), std::move(holds)};
}

Claim deviation(std::string id, double paper, std::string wording, Measure m,
                double pinned, std::string reason) {
  return {std::move(id), ClaimKind::kDeviation, paper, std::move(wording),
          std::move(m), {}, pinned, std::move(reason)};
}

/// Shape predicate: lo < measured < hi.
Holds between(double lo, double hi) {
  return [lo, hi](Sim&, double x) { return x > lo && x < hi; };
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

const analysis::RateRow* find_row(const std::vector<analysis::RateRow>& rows,
                                  std::string_view label) {
  for (const analysis::RateRow& r : rows) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

double avg(const std::vector<analysis::RateRow>& rows,
           std::string_view label) {
  const analysis::RateRow* r = find_row(rows, label);
  return r != nullptr ? r->avg : 0.0;
}

// Table 3 row labels the derived quantities read.
constexpr std::string_view kFpu0 = "Mips-Floating Point (Unit 0)";
constexpr std::string_view kFpu1 = "Mips-Floating Point (Unit 1)";
constexpr std::string_view kFpu = "Mips-Floating Point (Total)";
constexpr std::string_view kFxu = "Mips-Fixed Point Unit (Total)";
constexpr std::string_view kIcu = "Mips-Inst Cache Unit";
constexpr std::string_view kDmiss = "Data Cache Misses-Million/S";
constexpr std::string_view kTlb = "TLB-Million/S";
constexpr std::string_view kDmaR = "DMA reads-MTransfer/S";
constexpr std::string_view kDmaW = "DMA writes-MTransfer/S";

Measure t2(std::string_view label) {
  return [label](Sim& s) { return avg(s.table2().rows, label); };
}

Measure t3(std::string_view label) {
  return [label](Sim& s) { return avg(s.table3().rows, label); };
}

/// A Table 4 miss ratio in percent, or a Mflops/CPU cell as is.
Measure t4(Table4Column Table4::*column, double Table4Column::*field) {
  const double scale = field == &Table4Column::mflops_per_cpu ? 1.0 : 100.0;
  return [=](Sim& s) { return scale * (s.table4().*column).*field; };
}

Measure fig1(double analysis::Fig1Series::*field) {
  return [field](Sim& s) { return s.fig1().*field; };
}

Measure fig4(double analysis::Fig4Series::*field) {
  return [field](Sim& s) { return s.fig4(16).*field; };
}

/// The ratio of two Table 3 row averages.
Measure t3_ratio(std::string_view num, std::string_view den) {
  return [num, den](Sim& s) {
    const analysis::Table3 t = s.table3();
    return ratio(avg(t.rows, num), avg(t.rows, den));
  };
}

/// Message + disk DMA traffic in MB/s per node: transfers/s times the
/// mean transfer size.
double dma_mbytes(Sim& s) {
  const analysis::Table3 t = s.table3();
  return (avg(t.rows, kDmaR) + avg(t.rows, kDmaW)) *
         cluster::DmaConfig{}.avg_transfer_bytes();
}

double matmul_mflops(Sim& s) {
  return s.run_kernel(workload::blocked_matmul()).mflops();
}

double trend_corr(Sim& s, const char* metric) {
  const analysis::TrendReport t = analysis::analyze_trends(s.days());
  const analysis::MetricCorrelation* m = t.find(metric);
  return m != nullptr ? m->vs_mflops : 0.0;
}

std::vector<Claim> build_claims() {
  using analysis::Fig1Series;
  using analysis::Fig4Series;
  const auto nas = &Table4::nas_workload;
  const auto seq = &Table4::sequential;
  const auto bt = &Table4::npb_bt;
  const auto cache = &Table4Column::cache_miss_ratio;
  const auto tlb = &Table4Column::tlb_miss_ratio;
  const auto mflops = &Table4Column::mflops_per_cpu;
  const Measure fpu0_over_fpu1 = t3_ratio(kFpu0, kFpu1);
  const Measure flops_per_memref = t3_ratio("Mflops-All", kFxu);

  Claim mflops_shift = shape(
      "fault_campaign.mflops_shift", 0.0,
      "losses leave Table 2 Mflops within 5 % of a loss-free run",
      [](Sim& s) {
        const double clean = avg(s.table2().rows, "Mflops");
        const double faulted = avg(s.faulted().table2().rows, "Mflops");
        return ratio(std::fabs(faulted - clean), clean);
      },
      [](Sim&, double x) { return x <= kFaultMflopsBound; });
  // A 45-day, 48-node campaign's smaller day sample shifts by ~6 %.
  mflops_shift.paper_scale_only = true;

  return {
      // --- campaign summary and the section 5 calibration --------------
      band("summary.matmul_mflops", 240.0, "blocked matmul: ~240 Mflops",
           matmul_mflops),
      shape("summary.matmul_near_peak", 240.0, "matmul: ~90 % of peak",
            matmul_mflops, between(0.8 * kPeak, kPeak)),
      band("summary.matmul_peak_fraction", 240.0 / kPeak,
           "240 of 267 Mflops peak",
           [](Sim& s) { return matmul_mflops(s) / kPeak; }),
      band("summary.matmul_flops_per_memref", 3.0,
           "matmul: 3 flops per memory reference",
           [](Sim& s) {
             const power2::RunResult r =
                 s.run_kernel(workload::blocked_matmul());
             return ratio(static_cast<double>(r.counts.flops()),
                          static_cast<double>(r.counts.fxu_inst()));
           }),
      band("summary.batch_mflops_per_node", 19.0,
           "batch jobs: 19 Mflops/node (time-weighted)",
           [](Sim& s) {
             return s.campaign().jobs.time_weighted_mflops_per_node();
           }),
      shape("summary.batch_exceeds_elapsed", 19.0 / 9.0,
            "batch jobs (19) beat the elapsed-time average (~9)",
            [](Sim& s) {
              return ratio(s.campaign().jobs.time_weighted_mflops_per_node(),
                           s.fig1().mean_gflops * 1000.0 /
                               s.config().driver.num_nodes);
            },
            between(1.0, INFINITY)),

      // --- Table 1 (configuration) and Table 2 --------------------------
      shape("table1.counters", 22.0, "22 32-bit counters on the SCU chip",
            [](Sim&) { return 1.0 * hpm::counter_table().size(); },
            [](Sim&, double x) { return x == 22.0; }),

      band("table2.mips", 45.7, "Mips 45.7", t2("Mips")),
      band("table2.mops", 48.3, "Mops 48.3", t2("Mops")),
      band("table2.mflops", 17.4, "Mflops 17.4", t2("Mflops")),
      band("table2.sample_gflops", 2.5, "sample days: 2.5 Gflops",
           [](Sim& s) { return s.table2().sample_mean_gflops; }),
      band("table2.sample_utilization", 0.76, "sample days: 76 % utilization",
           [](Sim& s) { return s.table2().sample_mean_utilization; }),
      deviation("table2.sample_days", 30.0, "30 of 270 days exceed 2 Gflops",
                [](Sim& s) { return 1.0 * s.table2().sample_days; }, 88.0,
                "simulated daily demand varies less; the sample's rates "
                "still match"),
      shape("table2.mops_above_mips", 48.3 / 45.7,
            "Mops (48.3) run slightly above Mips (45.7)",
            [](Sim& s) {
              const analysis::Table2 t = s.table2();
              return ratio(avg(t.rows, "Mops"), avg(t.rows, "Mips"));
            },
            between(1.0, 1.25)),

      // --- Table 3 -----------------------------------------------------
      band("table3.mflops_all", 17.4, "Mflops-All 17.4", t3("Mflops-All")),
      band("table3.mflops_add", 9.5, "Mflops-add 9.5", t3("Mflops-add")),
      shape("table3.mflops_div", 0.0,
            "Mflops-div reads 0.0 (monitor bug) though divides execute",
            t3("Mflops-div"),
            [](Sim& s, double x) {
              const analysis::Table3 t = s.table3();
              const analysis::RateRow* r = find_row(t.rows, "Mflops-div");
              return x == 0.0 && (r == nullptr || r->day == 0.0);
            }),
      deviation("table3.mflops_mult", 3.2, "Mflops-mult 3.2",
                t3("Mflops-mult"), 2.196,
                "more multiplies fuse into fma (table3.fma_flop_share)"),
      band("table3.mflops_fma", 4.7, "Mflops-fma 4.7", t3("Mflops-fma")),
      band("table3.mips_fpu", 14.8, "Mips-FPU total 14.8", t3(kFpu)),
      band("table3.mips_fpu0", 9.4, "Mips-FPU unit 0 9.4", t3(kFpu0)),
      deviation("table3.mips_fpu1", 5.4, "Mips-FPU unit 1 5.4", t3(kFpu1),
                2.997, "dependence-bound kernels leave FPU1 idler"),
      deviation("table3.fpu0_fpu1_ratio", 1.7, "FPU0/FPU1 instructions 1.7",
                fpu0_over_fpu1, 3.170,
                "as table3.mips_fpu1; sign and mechanism reproduce "
                "(bench_ablation_dispatch)"),
      shape("table3.fpu0_carries_more", 1.7,
            "the dependence-limited workload loads FPU0 more than FPU1",
            fpu0_over_fpu1, between(1.1, 4.0)),
      band("table3.mips_fxu", 27.6, "Mips-FXU total 27.6", t3(kFxu)),
      band("table3.mips_fxu1", 16.5, "Mips-FXU unit 1 16.5",
           t3("Mips-Fixed Point (Unit 1)")),
      band("table3.mips_fxu0", 11.1, "Mips-FXU unit 0 11.1",
           t3("Mips-Fixed Point (Unit 0)")),
      deviation("table3.mips_icu", 3.3, "Mips-ICU 3.3", t3(kIcu), 2.008,
                "calibration matched Mflops, misses and DMA first; "
                "branches took the residual"),
      band("table3.dcache_miss_mps", 0.30, "D-cache misses 0.30 M/s",
           t3(kDmiss)),
      band("table3.tlb_miss_mps", 0.04, "TLB misses 0.04 M/s", t3(kTlb)),
      deviation("table3.icache_miss_mps", 0.014, "I-cache misses 0.014 M/s",
                t3("Instruction Cache Misses-Million/S"), 0.01027,
                "not a calibration target"),
      deviation("table3.dma_read_mts", 0.024, "DMA reads 0.024 MT/s",
                t3(kDmaR), 0.01797,
                "25 % fewer, larger transfers; the bytes "
                "(table3.dma_mbytes_per_node) match"),
      deviation("table3.dma_write_mts", 0.017, "DMA writes 0.017 MT/s",
                t3(kDmaW), 0.01274, "as table3.dma_read_mts"),
      band("table3.fma_flop_share", 0.54, "fma carries ~54 % of the flops",
           [fma = t3_ratio("Mflops-fma", "Mflops-All")](Sim& s) {
             return 2.0 * fma(s);
           }),
      band("table3.flops_per_memref", 0.63,
           "0.53-0.63 flops per memory instruction", flops_per_memref),
      shape("table3.fxu_carries_memory", 0.63,
            "FXU (memory) outnumbers FPU; flops/memref near 0.5-1.0",
            flops_per_memref,
            [](Sim& s, double x) {
              const analysis::Table3 t = s.table3();
              return avg(t.rows, kFxu) > avg(t.rows, kFpu) && x > 0.3 &&
                     x < 1.2;
            }),
      deviation("table3.branch_share", 0.07,
                "branches are ~7-11 % of instructions",
                [](Sim& s) {
                  const analysis::Table3 t = s.table3();
                  const double icu = avg(t.rows, kIcu);
                  return ratio(icu, avg(t.rows, kFxu) + icu +
                                        avg(t.rows, kFpu));
                },
                0.04921, "as table3.mips_icu"),
      deviation("table3.delay_per_memref", 0.12,
                "(8 x cache + 45 x TLB misses) / FXU ~ 0.12 cycles",
                [](Sim& s) {
                  const analysis::Table3 t = s.table3();
                  return ratio(8.0 * avg(t.rows, kDmiss) +
                                   45.0 * avg(t.rows, kTlb),
                               avg(t.rows, kFxu));
                },
                0.1804, "follows the table4.workload_* miss ratios"),
      band("table3.dma_mbytes_per_node", 1.3,
           "message and disk DMA: ~1.3 MB/s per node", dma_mbytes),
      band("table3.dma_bandwidth_share", 0.04, "~4 % of 34 MB/s per node",
           [](Sim& s) { return dma_mbytes(s) / 34.0; }),

      // --- Table 4 -----------------------------------------------------
      deviation("table4.workload_cache_miss_pct", 1.0,
                "NAS workload cache miss ratio 1 %", t4(nas, cache), 1.419,
                "22 % more D-cache misses/s over 5 % fewer FXU Mips"),
      deviation("table4.workload_tlb_miss_pct", 0.1,
                "NAS workload TLB miss ratio 0.1 %", t4(nas, tlb), 0.1597,
                "the paper's own Table 3 (0.04 / 27.6) implies 0.14 %"),
      band("table4.workload_mflops", 17.0, "NAS workload 17 Mflops/CPU",
           t4(nas, mflops)),
      band("table4.sequential_cache_miss_pct", 3.0,
           "sequential access: 3 % cache misses", t4(seq, cache)),
      band("table4.sequential_tlb_miss_pct", 0.2,
           "sequential access: 0.2 % TLB misses", t4(seq, tlb)),
      deviation("table4.bt_cache_miss_pct", 1.2,
                "NPB BT on 49 CPUs: 1.2 % cache misses", t4(bt, cache),
                0.8594, "npb_bt_like, a BT model, reuses cache more"),
      band("table4.bt_tlb_miss_pct", 0.06,
           "NPB BT on 49 CPUs: 0.06 % TLB misses", t4(bt, tlb)),
      deviation("table4.bt_mflops", 44.0, "NPB BT on 49 CPUs: 44 Mflops/CPU",
                t4(bt, mflops), 55.18, "as table4.bt_cache_miss_pct"),
      shape("table4.hierarchy_ordering", 1.0,
            "workload ~1 % / ~0.1 % misses, below sequential; BT faster",
            t4(nas, cache),
            [](Sim& s, double) {
              const Table4 t = s.table4();
              const Table4Column& w = t.nas_workload;
              return w.cache_miss_ratio > 0.004 &&
                     w.cache_miss_ratio < 0.03 &&
                     w.tlb_miss_ratio > 0.0002 && w.tlb_miss_ratio < 0.005 &&
                     w.cache_miss_ratio < t.sequential.cache_miss_ratio &&
                     t.npb_bt.tlb_miss_ratio < w.tlb_miss_ratio &&
                     t.npb_bt.mflops_per_cpu > w.mflops_per_cpu;
            }),

      // --- Figure 1 ----------------------------------------------------
      band("fig1.mean_gflops", 1.3, "the SP2 averages about 1.3 Gflops",
           fig1(&Fig1Series::mean_gflops)),
      shape("fig1.peak_fraction", 0.03, "about 3 % of peak",
            [](Sim& s) {
              return s.fig1().mean_gflops * 1000.0 /
                     (s.config().driver.num_nodes * kPeak);
            },
            between(0.01, 0.10)),
      deviation("fig1.best_day_gflops", 3.4, "best 24 hours: 3.4 Gflops",
                fig1(&Fig1Series::max_daily_gflops), 4.332,
                "fatter good-day tail (as table2.sample_days)"),
      band("fig1.mean_utilization", 0.64, "utilization averages 64 %",
           fig1(&Fig1Series::mean_utilization)),
      shape("fig1.utilization_moderate", 0.64,
            "utilization is moderate (64 % mean, 95 % best day)",
            fig1(&Fig1Series::mean_utilization),
            [](Sim& s, double x) {
              return x > 0.35 && x < 0.85 &&
                     s.fig1().max_daily_utilization > x;
            }),
      band("fig1.max_utilization", 0.95, "the best day used 95 %",
           fig1(&Fig1Series::max_daily_utilization)),
      shape("fig1.trend_slope", 0.0, "no obvious trend (Gflops/day)",
            fig1(&Fig1Series::trend_slope),
            [](Sim& s, double x) {
              return std::fabs(x) < 0.015 * s.fig1().mean_gflops;
            }),

      // --- Figure 2 ----------------------------------------------------
      shape("fig2.most_popular_nodes", 16.0, "16 nodes: the most popular",
            [](Sim& s) { return 1.0 * s.fig2().most_popular_nodes; },
            [](Sim&, double x) { return x == 16.0; }),
      shape("fig2.moderate_walltime_share", 0.5,
            "16-, 32- and 8-node jobs consume most of the walltime",
            [](Sim& s) {
              double total = 0.0, moderate = 0.0;
              for (const analysis::Fig2Bin& b : s.fig2().bins) {
                total += b.total_walltime_s;
                if (b.nodes == 8 || b.nodes == 16 || b.nodes == 32) {
                  moderate += b.total_walltime_s;
                }
              }
              return ratio(moderate, total);
            },
            between(0.5, INFINITY)),
      shape("fig2.walltime_beyond_64", 0.0,
            "essentially no walltime beyond 64 nodes",
            [](Sim& s) { return s.fig2().walltime_beyond_64_fraction; },
            between(-INFINITY, 0.05)),

      // --- Figure 3 ----------------------------------------------------
      deviation("fig3.peak_mflops_per_node", 40.0,
                "best batch job: ~40 Mflops/node",
                [](Sim& s) {
                  double best = 0.0;
                  for (const analysis::Fig3Bin& b : s.fig3().bins) {
                    best = std::max(best, b.max_mflops_per_node);
                  }
                  return best;
                },
                77.85, "a single-job extreme of a fatter fast tail"),
      band("fig3.mean_upto_64", 20.0, "sustained up to 64 nodes",
           [](Sim& s) { return s.fig3().mean_upto_64; }),
      deviation("fig3.mean_beyond_64", 8.0, "sharp decrease beyond 64 nodes",
                [](Sim& s) { return s.fig3().mean_beyond_64; }, 10.28,
                "the plot reads ~5-10; the simulated collapse is milder"),
      shape("fig3.wide_rate_collapses", 8.0 / 20.0,
            "jobs wider than the drain threshold run fewer Mflops/node",
            [](Sim& s) {
              const int threshold =
                  s.config().driver.sched.drain_threshold_nodes;
              double narrow = 0.0, wide = 0.0;
              int narrow_n = 0, wide_n = 0;
              for (const analysis::Fig3Bin& b : s.fig3().bins) {
                const bool is_wide = b.nodes > threshold;
                (is_wide ? wide : narrow) += b.mean_mflops_per_node * b.jobs;
                (is_wide ? wide_n : narrow_n) += b.jobs;
              }
              return wide_n > 0 ? (wide / wide_n) / (narrow / narrow_n) : 0.0;
            },
            [](Sim& s, double x) {
              const analysis::Fig3Series f = s.fig3();
              return x < 1.0 && (f.mean_beyond_64 == 0.0 ||
                                 f.mean_beyond_64 < 0.6 * f.mean_upto_64);
            }),

      // --- Figure 4 ----------------------------------------------------
      deviation("fig4.jobs", 1200.0, "~1200 16-node jobs analyzed",
                [](Sim& s) { return 1.0 * s.fig4(16).job_mflops.size(); },
                1791.0, "job counts were not a calibration target"),
      band("fig4.mean_mflops", 320.0, "16-node jobs: ~320 Mflops",
           fig4(&Fig4Series::mean)),
      deviation("fig4.stddev", 200.0, "spread ~200 Mflops",
                fig4(&Fig4Series::stddev), 259.5,
                "the fatter fast tail (fig3.peak_mflops_per_node)"),
      shape("fig4.trend_slope", 0.0,
            "noisy, no improvement over time (Mflops per job)",
            fig4(&Fig4Series::trend_slope),
            [](Sim& s, double x) {
              const analysis::Fig4Series f = s.fig4(16);
              const double n = static_cast<double>(f.job_mflops.size());
              return n > 30 && f.stddev > 0.2 * f.mean &&
                     std::fabs(x * n) < 0.8 * f.mean;
            }),

      // --- Figure 5 ----------------------------------------------------
      shape("fig5.correlation", -0.5,
            "high system intervention only on low-performance days",
            [](Sim& s) { return s.fig5().correlation; },
            [](Sim& s, double x) {
              return s.fig5().mflops_per_node.size() > 10 && x < -0.05;
            }),
      deviation("fig5.low_intervention_mflops", 17.0,
                "low-intervention days: ~17 Mflops/node",
                [](Sim& s) { return fig5_intervention_mean(s.fig5(), true); },
                12.56, "read off a scatter; simulated paging costs less"),
      deviation("fig5.high_intervention_mflops", 8.0,
                "high-intervention days: ~8 Mflops/node",
                [](Sim& s) { return fig5_intervention_mean(s.fig5(), false); },
                10.43, "as fig5.low_intervention_mflops"),

      // --- section 5's day-level trends --------------------------------
      deviation("trends.fma_vs_mflops", 0.0, "more fma, faster: not seen",
                [](Sim& s) { return trend_corr(s, "fma_flop_fraction"); },
                0.3612, "day-level mixing does not wash the fma signal out"),
      shape("trends.tlb_vs_mflops", 0.0, "more TLB misses, slower: not seen",
            [](Sim& s) { return trend_corr(s, "tlb_miss_ratio"); },
            [](Sim& s, double x) {
              return std::fabs(x) <
                     std::fabs(trend_corr(s, "system_user_fxu_ratio"));
            }),
      shape("trends.system_vs_mflops", -0.5,
            "the Figure 5 signal shows at day level",
            [](Sim& s) { return trend_corr(s, "system_user_fxu_ratio"); },
            between(-INFINITY, -0.05)),

      // --- the campaign under the reference outage profile -------------
      mflops_shift,
      shape("fault_campaign.loss_reconciles", 1.0,
            "every lost measurement traces to an injected fault",
            [](Sim& s) {
              return s.faulted().measurement_loss().reconciled() ? 1.0 : 0.0;
            },
            [](Sim&, double x) { return x == 1.0; }),
  };
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

double fig5_intervention_mean(const analysis::Fig5Series& f, bool low) {
  const double median = util::quantile(f.sys_user_fxu_ratio, 0.5);
  util::RunningStats half;
  for (std::size_t i = 0; i < f.sys_user_fxu_ratio.size(); ++i) {
    if ((f.sys_user_fxu_ratio[i] <= median) == low) {
      half.add(f.mflops_per_node[i]);
    }
  }
  return half.mean();
}

const char* to_string(ClaimKind kind) {
  constexpr const char* kNames[] = {"band", "shape", "deviation"};
  return kNames[static_cast<int>(kind)];
}

const std::vector<Claim>& claims() {
  static const std::vector<Claim> table = build_claims();
  return table;
}

ClaimResult evaluate(const Claim& claim, Sp2Simulation& sim) {
  ClaimResult r;
  r.claim = &claim;
  r.measured = claim.measure(sim);
  if (claim.kind == ClaimKind::kShape) {
    r.pass = claim.holds(sim, r.measured);
    return r;
  }
  const bool band = claim.kind == ClaimKind::kBand;
  const double center = band ? claim.paper : claim.pinned;
  const double tol =
      (band ? kBandTolerance : kPinTolerance) * std::fabs(center);
  r.lo = center - tol;
  r.hi = center + tol;
  r.pass = r.measured >= r.lo && r.measured <= r.hi;
  return r;
}

std::vector<ClaimResult> evaluate_claims(Sp2Simulation& sim) {
  std::vector<ClaimResult> out;
  for (const Claim& c : claims()) out.push_back(evaluate(c, sim));
  return out;
}

std::string format_claims(const std::vector<ClaimResult>& results) {
  std::string out;
  std::string deviations;
  int n_deviations = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ClaimResult& r = results[i];
    const Claim& c = *r.claim;
    if (i == 0 || c.artifact() != results[i - 1].claim->artifact()) {
      const Experiment* e = find_experiment(c.artifact());
      out += "\n### `" + c.artifact() + "` — " +
             (e != nullptr ? e->description : "?") + "\n\n" +
             "| claim | paper says | paper | measured | check | result |\n" +
             "|---|---|---|---|---|---|\n";
    }
    std::string check = "shape";
    if (c.kind != ClaimKind::kShape) {
      check = "band ";
      if (c.kind == ClaimKind::kDeviation) {
        check = "deviation " + std::to_string(++n_deviations) + ": pin ";
        deviations += std::to_string(n_deviations) + ". `" + c.id +
                      "` (paper " + fmt(c.paper) + ", pinned " +
                      fmt(c.pinned) + "): " + c.reason + ".\n";
      }
      check += fmt(r.lo) + " .. " + fmt(r.hi);
    }
    out += "| `" + c.id + "` | " + c.wording + " | " + fmt(c.paper) + " | " +
           fmt(r.measured) + " | " + check + " | " +
           (r.pass ? "pass" : "**FAIL**") + " |\n";
  }
  if (!deviations.empty()) out += "\n### Known deviations\n\n" + deviations;
  return out;
}

}  // namespace p2sim::core
