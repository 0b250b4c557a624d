#include "src/cluster/dma.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/rng.hpp"

namespace p2sim::cluster {
namespace {

TEST(DmaConfig, TransferSizeMixesFourAndEightWords) {
  // "A single transfer can represent either 4 or 8 words" = 32 or 64 bytes.
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 0.0}.avg_transfer_bytes(),
                   32.0);
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 1.0}.avg_transfer_bytes(),
                   64.0);
  EXPECT_DOUBLE_EQ(DmaConfig{.eight_word_fraction = 0.5}.avg_transfer_bytes(),
                   48.0);
}

TEST(DmaEngine, ConvertsBytesToTransfers) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});  // 32 B/transfer
  e.transfer(/*read=*/320.0, /*write=*/64.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 10u);
  EXPECT_EQ(h.write_transfers, 2u);
}

TEST(DmaEngine, ResidualsCarryAcrossHarvests) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(48.0, 0.0);  // 1.5 transfers
  EXPECT_EQ(e.harvest().read_transfers, 1u);
  e.transfer(16.0, 0.0);  // residual 16 + 16 = 1 transfer
  EXPECT_EQ(e.harvest().read_transfers, 1u);
}

TEST(DmaEngine, ConservesBytesOverManySmallChunks) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.5});  // 48 B/transfer
  std::uint64_t transfers = 0;
  for (int i = 0; i < 1000; ++i) {
    e.transfer(7.0, 0.0);  // far below one transfer each
    transfers += e.harvest().read_transfers;
  }
  EXPECT_EQ(transfers, static_cast<std::uint64_t>(7000.0 / 48.0));
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 7000.0);
}

TEST(DmaEngine, NegativeAndZeroTrafficIgnored) {
  DmaEngine e;
  e.transfer(-100.0, 0.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 0u);
  EXPECT_EQ(h.write_transfers, 0u);
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 0.0);
}

TEST(DmaEngine, ReadsAndWritesIndependent) {
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(64.0, 128.0);
  const auto h = e.harvest();
  EXPECT_EQ(h.read_transfers, 2u);
  EXPECT_EQ(h.write_transfers, 4u);
  EXPECT_DOUBLE_EQ(e.total_read_bytes(), 64.0);
  EXPECT_DOUBLE_EQ(e.total_write_bytes(), 128.0);
}

TEST(DmaEngine, PaperMessageRateArithmetic) {
  // Section 5: 0.042e6 transfers/s ~ 1.3 MB/s implies ~32-byte transfers.
  DmaEngine e(DmaConfig{.eight_word_fraction = 0.0});
  e.transfer(1.3e6, 0.0);
  EXPECT_NEAR(static_cast<double>(e.harvest().read_transfers), 0.0406e6,
              0.001e6);
}

// --- replay_slices: the closed form of m paging-free slices ---------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bytes(const DmaEngine::Bytes& a, const DmaEngine::Bytes& b) {
  EXPECT_EQ(bits(a.pending_read), bits(b.pending_read));
  EXPECT_EQ(bits(a.pending_write), bits(b.pending_write));
  EXPECT_EQ(bits(a.total_read), bits(b.total_read));
  EXPECT_EQ(bits(a.total_write), bits(b.total_write));
}

/// Runs replay_slices from `b` and checks it against m replay_slice calls:
/// bit-identical when it takes the closed form, untouched when it declines.
/// Returns whether it took the closed form.
bool closed_form_matches_loop(const DmaEngine::Bytes& b, double read,
                              double write, double per, std::uint64_t m) {
  const DmaEngine::SliceTraffic s{0.0, read, write};
  DmaEngine::Bytes loop = b;
  DmaEngine::Harvest loop_h;
  for (std::uint64_t i = 0; i < m; ++i) {
    DmaEngine::replay_slice(loop, s, per, loop_h);
  }
  DmaEngine::Bytes fast = b;
  DmaEngine::Harvest fast_h;
  const bool closed = DmaEngine::replay_slices(fast, s, per, m, fast_h);
  if (closed) {
    expect_same_bytes(fast, loop);
    EXPECT_EQ(fast_h.read_transfers, loop_h.read_transfers);
    EXPECT_EQ(fast_h.write_transfers, loop_h.write_transfers);
  } else {
    expect_same_bytes(fast, b);
    EXPECT_EQ(fast_h.read_transfers, 0u);
    EXPECT_EQ(fast_h.write_transfers, 0u);
  }
  return closed;
}

/// Pending residual `p` in both directions, lifetime totals set apart.
DmaEngine::Bytes pending(double p) { return {p, p, 1.5e9, 2.5e9}; }

// Random traffic from the states a slice loop actually reaches (a few
// slices in from a random residual), over the transfer sizes the config
// can give, integer or not.
TEST(DmaEngine, ReplaySlicesMatchesLoopOnRandomChains) {
  util::Xoshiro256StarStar rng(0xD3A);
  int closed = 0;
  int trials = 0;
  for (double frac : {0.0, 0.25, 0.3, 0.5, 1.0}) {
    const double per = DmaConfig{.eight_word_fraction = frac}
                           .avg_transfer_bytes();
    for (int t = 0; t < 400 && !testing::Test::HasFailure(); ++t) {
      const double read = rng.uniform(0.0, 2e8);
      const double write = rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 2e8);
      DmaEngine::Bytes b = pending(rng.uniform(0.0, per));
      DmaEngine::Harvest ignored;
      const DmaEngine::SliceTraffic s{0.0, read, write};
      for (std::uint64_t w = rng.below(3); w > 0; --w) {
        DmaEngine::replay_slice(b, s, per, ignored);
      }
      const std::uint64_t m = 1 + rng.below(64);
      closed += closed_form_matches_loop(b, read, write, per, m) ? 1 : 0;
      ++trials;
    }
  }
  // Integer transfer sizes put most post-slice states on the grid.
  EXPECT_GT(closed, trials / 4);
}

TEST(DmaEngine, ReplaySlicesMatchesLoopAtGridEdges) {
  const double per = 48.0;
  const double a = std::ldexp(1.0, 24) + 4096.0;  // g = 2^-28
  const double g = std::ldexp(1.0, -28);
  // One grid step and one true ulp below `per`: only the first is on the
  // grid of a.
  EXPECT_TRUE(closed_form_matches_loop(pending(per - g), a, a, per, 40));
  EXPECT_FALSE(closed_form_matches_loop(
      pending(std::nextafter(per, 0.0)), a, a, per, 40));
  EXPECT_TRUE(closed_form_matches_loop(pending(0.0), a, a, per, 40));
  EXPECT_TRUE(closed_form_matches_loop(pending(-0.0), a, a, per, 40));
  // The binade guard a + 4 per <= 2^(ilogb(a) + 1), at and one step past.
  const double at_guard = std::ldexp(1.0, 25) - 4.0 * per;
  EXPECT_TRUE(closed_form_matches_loop(pending(per - g), at_guard, at_guard,
                                       per, 64));
  const double past_guard = at_guard + g;
  EXPECT_FALSE(closed_form_matches_loop(pending(per - g), past_guard,
                                        past_guard, per, 64));
  // A slice of about one transfer never fits the binade guard; a slice
  // just under one transfer is outside a >= per as well.
  EXPECT_FALSE(closed_form_matches_loop(pending(47.0), per, per, per, 64));
  EXPECT_FALSE(closed_form_matches_loop(pending(47.0), std::nextafter(per, 0.0),
                                        per, per, 64));
  EXPECT_TRUE(closed_form_matches_loop(pending(47.0), 1024.0, 1024.0, per,
                                       64));
  // A transfer size off the grid of a (eight_word_fraction = 0.3).
  const double odd = DmaConfig{.eight_word_fraction = 0.3}.avg_transfer_bytes();
  EXPECT_FALSE(closed_form_matches_loop(pending(1.0), a, a, odd, 8));
}

TEST(DmaEngine, ReplaySlicesIdleDirection) {
  const double per = 48.0;
  const double a = 5e7;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // No bytes in one direction: the identity while the residual is below
  // one transfer; add() skips a NaN or negative rate just as it skips 0.
  for (double idle : {0.0, -3.0, nan}) {
    EXPECT_TRUE(closed_form_matches_loop({47.5, 12.0, 7.0, 9.0}, a, idle,
                                         per, 30));
    EXPECT_TRUE(closed_form_matches_loop({12.0, 47.5, 7.0, 9.0}, idle, a,
                                         per, 30));
  }
  // A residual of a whole transfer or more is harvested once, then idles.
  EXPECT_FALSE(closed_form_matches_loop({12.0, 96.0, 7.0, 9.0}, a, 0.0, per,
                                        30));
  EXPECT_FALSE(closed_form_matches_loop({nan, 0.0, 7.0, 9.0}, a, a, per, 30));
}

TEST(DmaEngine, ReplaySlicesDeclinesOutsideItsDomain) {
  const double per = 48.0;
  DmaEngine::Bytes b = pending(3.0);
  DmaEngine::Harvest h;
  // Paging bytes: the slice adds twice per direction.
  EXPECT_FALSE(DmaEngine::replay_slices(b, {4096.0, 5e7, 5e7}, per, 10, h));
  // Fewer bytes per slice than one transfer.
  EXPECT_FALSE(closed_form_matches_loop(b, 20.0, 5e7, per, 10));
  // m * a would overflow the 64-bit unit count.
  EXPECT_FALSE(DmaEngine::replay_slices(b, {0.0, 5e7, 5e7}, per,
                                        std::uint64_t{1} << 40, h));
  expect_same_bytes(b, pending(3.0));
  // Zero slices change nothing.
  EXPECT_TRUE(closed_form_matches_loop(b, 5e7, 5e7, per, 0));
}

// The interval repeat's recurrence: steady() sets up m slices once, and
// every step() must land where m more replay_slice calls land, bit for bit
// — pending bytes, lifetime totals and transfers — for as many steps as
// the chain runs.  A declined setup leaves nothing to step.
TEST(DmaEngine, SteadyStepsMatchLoop) {
  util::Xoshiro256StarStar rng(0xD3B);
  int stepped = 0;
  for (double frac : {0.0, 0.25, 0.3, 0.5, 0.75, 1.0}) {
    const double per = DmaConfig{.eight_word_fraction = frac}
                           .avg_transfer_bytes();
    for (int t = 0; t < 300 && !testing::Test::HasFailure(); ++t) {
      // Whole-byte slices half the time (the campaign's rates times whole
      // seconds), arbitrary doubles otherwise; sometimes a direction idles.
      const auto bytes = [&rng] {
        const double b = rng.uniform(0.0, 2e8);
        switch (rng.below(4)) {
          case 0:
            return 0.0;
          case 1:
            return b;
          default:
            return std::floor(b);
        }
      };
      const DmaEngine::SliceTraffic s{0.0, bytes(), bytes()};
      DmaEngine::Bytes b = pending(std::floor(rng.uniform(0.0, per)));
      DmaEngine::Harvest ignored;
      for (std::uint64_t w = rng.below(3); w > 0; --w) {
        DmaEngine::replay_slice(b, s, per, ignored);
      }
      const std::uint64_t m = 1 + rng.below(40);
      DmaEngine::Steady st;
      if (!DmaEngine::steady(b, s, per, m, st)) continue;
      DmaEngine::Bytes loop = b;
      DmaEngine::Bytes fast = b;
      for (int k = 0; k < 25; ++k) {
        DmaEngine::Harvest loop_h;
        for (std::uint64_t i = 0; i < m; ++i) {
          DmaEngine::replay_slice(loop, s, per, loop_h);
        }
        DmaEngine::Harvest fast_h;
        DmaEngine::step(fast, st, fast_h);
        expect_same_bytes(fast, loop);
        EXPECT_EQ(fast_h.read_transfers, loop_h.read_transfers);
        EXPECT_EQ(fast_h.write_transfers, loop_h.write_transfers);
        if (testing::Test::HasFailure()) return;
      }
      ++stepped;
    }
  }
  // Most whole-byte chains over integer transfer sizes are in the domain.
  EXPECT_GT(stepped, 500);
}

TEST(DmaEngine, SteadyDeclinesWhatReplaySlicesDeclines) {
  const double per = 48.0;
  DmaEngine::Steady st;
  // Paging, a slice under one transfer, a transfer size off the grid.
  EXPECT_FALSE(DmaEngine::steady(pending(3.0), {4096.0, 5e7, 5e7}, per, 10,
                                 st));
  EXPECT_FALSE(DmaEngine::steady(pending(3.0), {0.0, 20.0, 5e7}, per, 10,
                                 st));
  const double odd = DmaConfig{.eight_word_fraction = 0.3}.avg_transfer_bytes();
  EXPECT_FALSE(DmaEngine::steady(pending(1.0), {0.0, 5e7, 5e7}, odd, 10, st));
  // An idle direction holding a whole transfer is not the identity.
  EXPECT_FALSE(DmaEngine::steady({12.0, 96.0, 7.0, 9.0}, {0.0, 5e7, 0.0},
                                 per, 10, st));
}

}  // namespace
}  // namespace p2sim::cluster
