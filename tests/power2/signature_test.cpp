#include "src/power2/signature.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/power2/kernel_desc.hpp"

namespace p2sim::power2 {
namespace {

KernelDesc simple_kernel() {
  KernelBuilder b("sig_simple");
  const auto s = b.stream(1 << 20, 8);
  const auto l = b.load(s);
  b.fma(l);
  b.fp_add();
  return b.warmup(64).measure(2048).build();
}

TEST(Signature, RatesMatchDirectRun) {
  Power2Core core;
  const KernelDesc k = simple_kernel();
  const EventSignature sig = measure_signature(core, k);

  Power2Core core2;
  const RunResult r = core2.run(k);
  const double c = static_cast<double>(r.counts.cycles);
  EXPECT_NEAR(sig.fxu0_inst + sig.fxu1_inst,
              static_cast<double>(r.counts.fxu_inst()) / c, 1e-12);
  EXPECT_NEAR(sig.flops_per_cycle(),
              static_cast<double>(r.counts.flops()) / c, 1e-12);
  EXPECT_NEAR(sig.cycles_per_iter, r.cycles_per_iter(), 1e-12);
}

TEST(Signature, FlopsPerCycleSumsAllTypes) {
  EventSignature s;
  s.fp_add0 = 0.1;
  s.fp_mul1 = 0.2;
  s.fp_fma0 = 0.3;
  s.fp_div1 = 0.05;
  EXPECT_NEAR(s.flops_per_cycle(), 0.65, 1e-12);
}

TEST(Signature, MflopsAtClock) {
  EventSignature s;
  s.fp_add0 = 0.5;
  EXPECT_NEAR(s.mflops(100e6), 50.0, 1e-9);
}

TEST(Signature, ScaleProducesProportionalCounts) {
  EventSignature s;
  s.fp_add0 = 0.25;
  s.fxu0_inst = 0.5;
  s.dcache_miss = 0.01;
  const EventCounts ev = s.scale(1'000'000.0);
  EXPECT_EQ(ev.cycles, 1'000'000u);
  EXPECT_EQ(ev.fp_add0, 250'000u);
  EXPECT_EQ(ev.fxu0_inst, 500'000u);
  EXPECT_EQ(ev.dcache_miss, 10'000u);
}

TEST(Signature, ScaleZeroOrNegativeIsEmpty) {
  EventSignature s;
  s.fp_add0 = 1.0;
  EXPECT_EQ(s.scale(0.0), EventCounts{});
  EXPECT_EQ(s.scale(-5.0), EventCounts{});
}

TEST(Signature, ScaleRoundTripApproximatesRun) {
  Power2Core core;
  const KernelDesc k = simple_kernel();
  const EventSignature sig = measure_signature(core, k);
  Power2Core core2;
  const RunResult r = core2.run(k);
  const EventCounts scaled = sig.scale(static_cast<double>(r.counts.cycles));
  // Rounding only: within one event of the direct run.
  EXPECT_NEAR(static_cast<double>(scaled.fp_add0),
              static_cast<double>(r.counts.fp_add0), 1.0);
  EXPECT_NEAR(static_cast<double>(scaled.memory_inst),
              static_cast<double>(r.counts.memory_inst), 1.0);
}

TEST(SignatureCache, MemoizesByContent) {
  SignatureCache cache;
  const KernelDesc k = simple_kernel();
  cache.warm({k, k});
  const EventSignature& a = cache.get(k);
  const EventSignature& b = cache.get(k);
  EXPECT_EQ(&a, &b);  // same table entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().measured, 1u);
  cache.warm({k});  // already in the table: nothing to measure
  EXPECT_EQ(cache.stats().measured, 1u);
  EXPECT_EQ(&cache.get(k), &a);
}

TEST(SignatureCache, DistinctKernelsDistinctEntries) {
  SignatureCache cache;
  KernelBuilder b2("sig_other");
  b2.fp_add();
  cache.warm({simple_kernel(), b2.warmup(8).measure(256).build()});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().measured, 2u);
}

TEST(SignatureCache, HonorsCoreConfig) {
  // A cache-resident working set measured on a core with a tiny cache
  // must show a higher miss rate.
  KernelBuilder b("resident");
  const auto s = b.stream(64 * 1024, 8);  // fits the 256 kB SP2 cache
  const auto l = b.load(s);
  b.fp_add(l);
  // Warmup walks the full 8192-element footprint so the SP2-sized cache
  // reaches its zero-miss steady state before measurement.
  const KernelDesc k = b.warmup(16384).measure(8192).build();

  SignatureCache normal;
  CoreConfig tiny;
  tiny.dcache = {.size_bytes = 4096, .line_bytes = 256, .ways = 2};
  SignatureCache small(tiny);
  normal.warm({k});
  small.warm({k});
  EXPECT_GT(small.get(k).dcache_miss, normal.get(k).dcache_miss);
}

TEST(SignatureCache, BatchMeasureFillsTheTable) {
  // The driver hands warm() a measurer that spreads the batch over its
  // pool; any measurer that fills out[i] for kernels[i] gives the table
  // serial measurement would.
  KernelBuilder b2("sig_batch");
  b2.fp_mul();
  const std::vector<KernelDesc> kernels = {simple_kernel(),
                                           b2.warmup(8).measure(256).build()};
  std::size_t batch_size = 0;
  SignatureCache batched;
  batched.warm(kernels, [&batch_size](const std::vector<KernelDesc>& batch,
                                      std::vector<QuietMeasurement>& out) {
    batch_size = batch.size();
    for (std::size_t i = batch.size(); i-- > 0;) {
      out[i] = measure_quiet({}, batch[i]);
    }
  });
  EXPECT_EQ(batch_size, 2u);
  SignatureCache serial;
  serial.warm(kernels);
  for (const KernelDesc& k : kernels) {
    EXPECT_EQ(batched.get(k), serial.get(k)) << k.name;
  }
}

TEST(SignatureCache, GetOnUnwarmedKernelThrows) {
  SignatureCache cache;
  EXPECT_THROW((void)cache.get(simple_kernel()), std::out_of_range);
  KernelBuilder b2("sig_never_warmed");
  b2.fp_add();
  cache.warm({simple_kernel()});
  EXPECT_THROW((void)cache.get(b2.warmup(8).measure(256).build()),
               std::out_of_range);
  EXPECT_EQ(cache.stats().measured, 1u);  // a miss never measures
}

}  // namespace
}  // namespace p2sim::power2
