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

  /// One direction of the closed form in integer units of the grid `g`:
  /// the residual `p`, the transfer size `r`, and the `m` slices' bytes
  /// m·a split once as q0·r + r0.  recurrence() proves the domain and
  /// builds it; every step() is then m more slices for two integer adds
  /// and a compare.  `moves` is false for the identity: no slices, or a
  /// direction with no bytes whose take leaves p unchanged.
  struct Recurrence {
    double g = 0.0;
    std::uint64_t p = 0;
    std::uint64_t r = 1;
    std::uint64_t q0 = 0;
    std::uint64_t r0 = 0;
    bool moves = false;
  };

  /// Both directions of `m` paging-free slices of the traffic `s`, set up
  /// once by steady() and advanced by step().
  struct Steady {
    Recurrence read;
    Recurrence write;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    std::uint64_t m = 0;
  };

  /// Sets up `out` for m-slice steps of `s` from the byte state `b`.
  /// Returns false when `s` pages or either direction's chain is outside
  /// the domain where the closed form is exact (see recurrence()).
  P2SIM_PAR_SAFE static bool steady(const Bytes& b, const SliceTraffic& s,
                                    double per, std::uint64_t m,
                                    Steady& out) {
    if (s.page_bytes > 0.0) return false;
    if (!recurrence(b.pending_read, s.read_bytes, per, m, out.read) ||
        !recurrence(b.pending_write, s.write_bytes, per, m, out.write)) {
      return false;
    }
    out.read_bytes = s.read_bytes;
    out.write_bytes = s.write_bytes;
    out.m = m;
    return true;
  }

  /// m more slices of the steady traffic: each direction's residual by its
  /// recurrence, the lifetime totals slice by slice (they round, so they
  /// add as the loop adds), the transfers into `total`.  `b` must be the
  /// state the previous step (or steady()) left.
  P2SIM_PAR_SAFE static void step(Bytes& b, Steady& st, Harvest& total) {
    total.read_transfers += step(st.read, b.pending_read);
    total.write_transfers += step(st.write, b.pending_write);
    for (std::uint64_t i = 0; i < st.m; ++i) {
      if (st.read_bytes > 0.0) b.total_read += st.read_bytes;
      if (st.write_bytes > 0.0) b.total_write += st.write_bytes;
    }
  }

  /// `m` more slices of replay_slice with the same paging-free traffic `s`,
  /// in closed form: steady() then one step().  Returns false, leaving `b`
  /// and `total` untouched, when steady() declines — the caller then
  /// replays the slices one by one.
  P2SIM_PAR_SAFE static bool replay_slices(Bytes& b, const SliceTraffic& s,
                                           double per, std::uint64_t m,
                                           Harvest& total) {
    Steady st;
    if (!steady(b, s, per, m, st)) return false;
    step(b, st, total);
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
  /// The domain proof of one direction: `m` slices that each add `a`
  /// bytes (skipped unless a > 0, as in add()) to the residual `p` and
  /// take whole transfers of `per` bytes.  With a > 0 the closed form needs
  ///   a >= per > p >= 0;  p, a and per whole multiples of g, the ulp of a
  ///   (g = 2^k, k = ilogb(a) - 52);  a + 4 per <= 2^(ilogb(a) + 1).
  /// Then with P = p/g, A = a/g, R = per/g every slice's sum (P + A) g,
  /// product q R g and difference stay below 2^53 g, so each is exact, and
  /// the quotient's rounding error (under half an ulp of S/R < 2^53/R, so
  /// under 1/R) cannot lift it to the next integer: the loop computes
  /// q = floor(S/R) and P' = S mod R exactly.  Hence m slices take
  /// floor((P + mA) / R) transfers and leave ((P + mA) mod R) g pending,
  /// and P stays on the grid below R, so the domain holds for every later
  /// step of the same m slices.  With no bytes added each slice is one
  /// take of p, the identity when that take leaves p bitwise unchanged.
  /// Fills `rec` and returns true, or returns false.
  P2SIM_PAR_SAFE static bool recurrence(double p, double a, double per,
                                        std::uint64_t m, Recurrence& rec) {
    rec = Recurrence{};
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
    rec.g = g;
    rec.p = pu;
    rec.r = ru;
    rec.q0 = m * au / ru;
    rec.r0 = m * au % ru;
    rec.moves = true;
    return true;
  }
  /// One step of `rec`: P + mA = (q0 + c) R + P' with c = [P + r0 >= R],
  /// since P and r0 are both below R.  Writes the residual back to `p`
  /// (exact: P' < R <= 2^53) and returns the transfers taken.
  P2SIM_PAR_SAFE static std::uint64_t step(Recurrence& rec, double& p) {
    if (!rec.moves) return 0;
    rec.p += rec.r0;
    const std::uint64_t carry = rec.p >= rec.r ? 1 : 0;
    rec.p -= carry * rec.r;
    p = static_cast<double>(rec.p) * rec.g;
    return rec.q0 + carry;
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
