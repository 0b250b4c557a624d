// The job stream is data: the driver draws the campaign's whole arrival
// trace at setup and measures every kernel in it once.  These tests pin
// that restructuring to the bytes the lazily drawn stream produced.
//
//   * FingerprintsMatchRecordedBytes compares FNV-1a/64 hashes of the full
//     campaign fingerprint (record streams, loss report, sim-time jsonl and
//     Chrome trace) against values recorded from the lazily drawing
//     driver, so a reordered arrival or first-use replay fails here.
//   * The trace tests check build_arrival_trace against an oracle that
//     draws the stream the lazy way, interval by interval.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/checksum.hpp"
#include "src/util/rng.hpp"
#include "src/util/sim_time.hpp"
#include "src/workload/jobgen.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(JobStream, FingerprintsMatchRecordedBytes) {
  struct Case {
    const char* name;
    DriverConfig cfg;
    int threads;
    const char* fnv;
  };
  const Case cases[] = {
      {"small t=1", small_config(), 1, "c38f00f3a4d57f69"},
      {"small t=4", small_config(), 4, "c38f00f3a4d57f69"},
      {"faulted t=1", faulted_config(), 1, "e76e2ccf431915eb"},
      {"faulted t=4", faulted_config(), 4, "e76e2ccf431915eb"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hex(util::fnv1a64(campaign_fingerprint(c.cfg, c.threads))),
              c.fnv)
        << c.name;
  }
}

/// The stream as the per-interval loop drew it: at each day start the
/// demand walk and the slump draws, then at every interval one Poisson
/// draw from the master stream and one generator call per arrival.
struct OracleStream {
  std::vector<pbs::JobSpec> trace;
  ProfileRegistry registry;
  int weekend_days = 0;
  int slump_days = 0;
};

OracleStream oracle_stream(const DriverConfig& cfg) {
  OracleStream out;
  JobGenConfig gc = cfg.jobgen;
  gc.seed ^= cfg.seed;
  JobGenerator gen(gc, out.registry);
  util::Xoshiro256StarStar rng(cfg.seed);
  double demand_level = 1.0;
  int slump_days_left = 0;
  double slump_depth = 1.0;
  for (std::int64_t t = 0; t < cfg.days * util::kIntervalsPerDay; ++t) {
    const std::int64_t day = t / util::kIntervalsPerDay;
    if (t % util::kIntervalsPerDay == 0) {
      demand_level = std::clamp(
          cfg.demand_walk_rho * demand_level +
              rng.normal(1.0 - cfg.demand_walk_rho,
                         cfg.demand_walk_noise *
                             (1.0 - cfg.demand_walk_rho) * 4.0),
          cfg.demand_min, cfg.demand_max);
      if (slump_days_left > 0) {
        --slump_days_left;
      } else if (rng.chance(cfg.slump_prob_per_day)) {
        slump_days_left = static_cast<int>(2 + rng.below(6));
        slump_depth = rng.uniform(cfg.slump_depth_min, cfg.slump_depth_max);
      }
      out.weekend_days += util::is_weekend(day) ? 1 : 0;
      out.slump_days += slump_days_left > 0 ? 1 : 0;
    }
    const double day_factor =
        (util::is_weekend(day) ? cfg.weekend_factor : 1.0) *
        (slump_days_left > 0 ? slump_depth : 1.0);
    const double lambda = cfg.jobs_per_day * day_factor * demand_level /
                          static_cast<double>(util::kIntervalsPerDay);
    const std::uint64_t arrivals = rng.poisson(lambda);
    const double now = static_cast<double>(t) *
                       static_cast<double>(util::kIntervalSeconds);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      out.trace.push_back(gen.next(now));
    }
  }
  return out;
}

/// The registered profiles as comparable text: every field the campaign
/// reads, the kernel by content hash.
std::string profile_digest(const ProfileRegistry& registry) {
  std::string out;
  char line[256];
  registry.for_each([&](const JobProfile& p) {
    std::snprintf(line, sizeof line,
                  "%lld %016llx %a %a %a %a %a %a %a %a %s %d\n",
                  static_cast<long long>(p.id),
                  static_cast<unsigned long long>(p.kernel.content_hash()),
                  p.comm_fraction_base, p.comm_scaling_exponent,
                  p.msg_bytes_per_s, p.disk_read_bytes_per_s,
                  p.disk_write_bytes_per_s, p.memory_mb_per_node,
                  p.imbalance_efficiency, p.duty_cycle, p.family.c_str(),
                  p.comm_shape.has_value() ? 1 : 0);
    out += line;
  });
  return out;
}

TEST(JobStream, TraceMatchesPerIntervalOracle) {
  int weekend_days = 0;
  int slump_days = 0;
  for (std::uint64_t seed : {0xC0FFEE42ULL, 1ULL, 7ULL, 0xBADC0DEULL}) {
    DriverConfig cfg = small_config(21);
    cfg.seed = seed;
    cfg.slump_prob_per_day = 0.15;  // several slumps in three weeks
    const OracleStream want = oracle_stream(cfg);
    ProfileRegistry registry;
    const std::vector<pbs::JobSpec> got = build_arrival_trace(cfg, registry);
    ASSERT_FALSE(want.trace.empty());
    EXPECT_TRUE(got == want.trace) << "seed " << seed;
    EXPECT_EQ(profile_digest(registry), profile_digest(want.registry))
        << "seed " << seed;
    weekend_days += want.weekend_days;
    slump_days += want.slump_days;
  }
  // The seeds exercised both day-factor paths.
  EXPECT_GT(weekend_days, 0);
  EXPECT_GT(slump_days, 0);
}

TEST(JobStream, ShorterCampaignTraceIsAPrefix) {
  for (std::int64_t days : {1, 4, 9}) {
    ProfileRegistry short_registry;
    ProfileRegistry long_registry;
    const std::vector<pbs::JobSpec> short_trace =
        build_arrival_trace(small_config(days), short_registry);
    const std::vector<pbs::JobSpec> long_trace =
        build_arrival_trace(small_config(days + 5), long_registry);
    ASSERT_LT(short_trace.size(), long_trace.size()) << days;
    EXPECT_TRUE(std::equal(short_trace.begin(), short_trace.end(),
                           long_trace.begin()))
        << days;
    EXPECT_GE(long_trace[short_trace.size()].submit_time_s,
              static_cast<double>(days) * 86400.0);
    const std::string short_digest = profile_digest(short_registry);
    EXPECT_EQ(profile_digest(long_registry).substr(0, short_digest.size()),
              short_digest);
  }
}

}  // namespace
}  // namespace p2sim::workload
