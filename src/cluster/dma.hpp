// Micro Channel DMA engine model.
//
// The SCU's DMA counters report *transfers*, where "a single transfer can
// represent either 4 or 8 words" (section 5) — 32 or 64 bytes.  The engine
// converts byte traffic into transfer counts using a configurable 8-word
// share, carrying fractional residuals so that fine-grained interval
// accounting conserves bytes exactly.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/check/annotate.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::cluster {

struct DmaConfig {
  /// Fraction of transfers that move 8 words (64 bytes); the rest move 4.
  double eight_word_fraction = 0.5;

  P2SIM_PAR_SAFE double avg_transfer_bytes() const {
    return eight_word_fraction * 64.0 + (1.0 - eight_word_fraction) * 32.0;
  }
};

/// Accumulates read (memory -> device) and write (device -> memory) traffic
/// and exposes whole-transfer counts as the hardware counters would see.
class DmaEngine {
 public:
  explicit DmaEngine(const DmaConfig& cfg = {}) : cfg_(cfg) {}

  /// `reads` = bytes leaving memory (sends, disk writes);
  /// `writes` = bytes entering memory (receives, disk reads).
  P2SIM_PAR_SAFE void transfer(double read_bytes, double write_bytes) {
    add(bytes_, read_bytes, write_bytes);
  }

  /// Transfers completed since the last harvest; the caller feeds these to
  /// the performance monitor and the engine keeps only sub-transfer
  /// residuals.
  struct Harvest {
    std::uint64_t read_transfers = 0;
    std::uint64_t write_transfers = 0;
  };
  P2SIM_PAR_SAFE Harvest harvest() {
    return take(bytes_, cfg_.avg_transfer_bytes());
  }

  /// The engine's whole dynamic state: sub-transfer residuals awaiting
  /// harvest and lifetime byte totals.
  struct Bytes {
    double pending_read = 0.0;
    double pending_write = 0.0;
    double total_read = 0.0;
    double total_write = 0.0;
  };
  P2SIM_PAR_SAFE const Bytes& bytes() const { return bytes_; }
  P2SIM_PAR_SAFE void set_bytes(const Bytes& b) { bytes_ = b; }

  /// One sample slice of traffic: `page_bytes` of paging I/O in each
  /// direction, then `read_bytes` / `write_bytes` of message and file
  /// traffic.
  struct SliceTraffic {
    double page_bytes = 0.0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
  };
  /// One slice's chain — transfer(page, page); transfer(read, write);
  /// harvest() — applied to the byte state `b` instead of the engine, with
  /// `per` = config().avg_transfer_bytes(), adding the harvest to `total`.
  /// It runs the very steps transfer() and harvest() run, so a caller can
  /// hold `b` in registers across a slice loop and still match the
  /// engine's call chain bit for bit.
  P2SIM_PAR_SAFE static void replay_slice(Bytes& b, const SliceTraffic& s,
                                          double per, Harvest& total) {
    add(b, s.page_bytes, s.page_bytes);
    add(b, s.read_bytes, s.write_bytes);
    const Harvest h = take(b, per);
    total.read_transfers += h.read_transfers;
    total.write_transfers += h.write_transfers;
  }

  /// `m` more slices of replay_slice with the same paging-free traffic `s`,
  /// in closed form.  Each direction's chain is p <- s - floor(s / per) *
  /// per with s = p + a, which skip_pending solves for all m slices at
  /// once; the lifetime totals still add slice by slice, so they round as
  /// the loop does.  Returns false, leaving `b` and `total` untouched, when
  /// `s` pages or either direction's chain is outside the domain where the
  /// closed form is exact — the caller then replays the slices one by one.
  P2SIM_PAR_SAFE static bool replay_slices(Bytes& b, const SliceTraffic& s,
                                           double per, std::uint64_t m,
                                           Harvest& total) {
    if (s.page_bytes > 0.0) return false;
    double read = b.pending_read;
    double write = b.pending_write;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    if (!skip_pending(read, s.read_bytes, per, m, reads) ||
        !skip_pending(write, s.write_bytes, per, m, writes)) {
      return false;
    }
    b.pending_read = read;
    b.pending_write = write;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (s.read_bytes > 0.0) b.total_read += s.read_bytes;
      if (s.write_bytes > 0.0) b.total_write += s.write_bytes;
    }
    total.read_transfers += reads;
    total.write_transfers += writes;
    return true;
  }

  double total_read_bytes() const { return bytes_.total_read; }
  double total_write_bytes() const { return bytes_.total_write; }
  /// Sub-transfer residuals awaiting harvest (equivalence tests compare
  /// these byte-for-byte between accrual paths).
  double pending_read_bytes() const { return bytes_.pending_read; }
  double pending_write_bytes() const { return bytes_.pending_write; }
  P2SIM_PAR_SAFE const DmaConfig& config() const { return cfg_; }

  /// Checkpoint support: residuals and lifetime totals round-trip exactly.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_f64(bytes_.pending_read);
    w.put_f64(bytes_.pending_write);
    w.put_f64(bytes_.total_read);
    w.put_f64(bytes_.total_write);
  }
  void restore_ckpt(util::CkptReader& r) {
    bytes_.pending_read = r.read_f64("dma.pending_read");
    bytes_.pending_write = r.read_f64("dma.pending_write");
    bytes_.total_read = r.read_f64("dma.total_read");
    bytes_.total_write = r.read_f64("dma.total_write");
  }

 private:
  P2SIM_PAR_SAFE static void add(Bytes& b, double read_bytes,
                                 double write_bytes) {
    if (read_bytes > 0.0) {
      b.pending_read += read_bytes;
      b.total_read += read_bytes;
    }
    if (write_bytes > 0.0) {
      b.pending_write += write_bytes;
      b.total_write += write_bytes;
    }
  }
  /// One direction of replay_slices: `m` slices that each add `a` bytes
  /// (skipped unless a > 0, as in add()) to the residual `p` and take whole
  /// transfers of `per` bytes.  With a > 0 the closed form needs
  ///   a >= per > p >= 0;  p, a and per whole multiples of g, the ulp of a
  ///   (g = 2^k, k = ilogb(a) - 52);  a + 4 per <= 2^(ilogb(a) + 1).
  /// Then with P = p/g, A = a/g, R = per/g every slice's sum (P + A) g,
  /// product q R g and difference stay below 2^53 g, so each is exact, and
  /// the quotient's rounding error (under half an ulp of S/R < 2^53/R, so
  /// under 1/R) cannot lift it to the next integer: the loop computes
  /// q = floor(S/R) and P' = S mod R exactly.  Hence m slices take
  /// floor((P + mA) / R) transfers and leave ((P + mA) mod R) g pending.
  /// With no bytes added each slice is one take of p, the identity when
  /// that take leaves p bitwise unchanged.  Adds the transfers to `n` and
  /// returns true, or returns false with `p` and `n` untouched.
  P2SIM_PAR_SAFE static bool skip_pending(double& p, double a, double per,
                                          std::uint64_t m, std::uint64_t& n) {
    if (m == 0) return true;
    if (!(a > 0.0)) {
      const double q = std::floor(p / per);
      const double left = p - q * per;
      return q == 0.0 && std::memcmp(&left, &p, sizeof p) == 0;
    }
    if (!std::isnormal(a) || !(a >= per) || !(p >= 0.0) || !(p < per)) {
      return false;
    }
    // a = au * 2^k with au in [2^52, 2^53); g = 2^k and 1/g are built from
    // their bits (|k| <= 1022 keeps both normal) so each grid test is a
    // multiply, exact for every on-grid value.
    const std::uint64_t a_bits = std::bit_cast<std::uint64_t>(a);
    const int k = static_cast<int>(a_bits >> 52) - 1075;
    if (k < -1022 || k > 1022) return false;
    const double g = std::bit_cast<double>(std::uint64_t(k + 1023) << 52);
    const double inv_g = std::bit_cast<double>(std::uint64_t(1023 - k) << 52);
    const std::uint64_t au = (a_bits & ((std::uint64_t{1} << 52) - 1)) |
                             (std::uint64_t{1} << 52);
    // x as a whole multiple of g (the round trip rejects lost bits).
    const auto on_grid = [g, inv_g](double x, std::uint64_t& units) {
      const double scaled = x * inv_g;
      if (scaled != std::floor(scaled) || scaled * g != x) return false;
      units = static_cast<std::uint64_t>(scaled);
      return true;
    };
    std::uint64_t pu = 0;
    std::uint64_t ru = 0;
    if (!on_grid(p, pu) || !on_grid(per, ru) ||
        au + 4 * ru > (std::uint64_t{1} << 53) ||
        m > (~std::uint64_t{0} - pu) / au) {
      return false;
    }
    const std::uint64_t units = pu + m * au;
    n += units / ru;
    p = static_cast<double>(units % ru) * g;
    return true;
  }
  P2SIM_PAR_SAFE static Harvest take(Bytes& b, double per) {
    Harvest h;
    const double r = std::floor(b.pending_read / per);
    const double w = std::floor(b.pending_write / per);
    h.read_transfers = static_cast<std::uint64_t>(r);
    h.write_transfers = static_cast<std::uint64_t>(w);
    b.pending_read -= r * per;
    b.pending_write -= w * per;
    return h;
  }

  DmaConfig cfg_;
  Bytes bytes_{};
};

}  // namespace p2sim::cluster
