// Micro Channel DMA engine model.
//
// The SCU's DMA counters report *transfers*, where "a single transfer can
// represent either 4 or 8 words" (section 5) — 32 or 64 bytes.  The engine
// converts byte traffic into transfer counts using a configurable 8-word
// share, carrying fractional residuals so that fine-grained interval
// accounting conserves bytes exactly.
#pragma once

#include <cmath>
#include <cstdint>

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
