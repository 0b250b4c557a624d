// Torn-write fuzzer for every durable artifact the simulator persists:
// the binary checkpoint container, the v2 record streams and the
// signature store.  The adversary is a crash (or bit rot) at an arbitrary
// byte: every prefix truncation and every single-byte corruption of each
// format must load to a precise, non-empty diagnosis — never a crash,
// never silently-adopted garbage, and for the all-or-nothing signature
// store never a partial prefix.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/record_io.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/power2/signature.hpp"
#include "src/power2/signature_store.hpp"
#include "src/util/ckpt.hpp"
#include "src/workload/checkpoint.hpp"
#include "tests/scratch_path.hpp"

namespace p2sim {
namespace {

// --- checkpoint container ------------------------------------------------

std::string sample_checkpoint() {
  util::CkptWriter w;
  w.put_u64(0xDEADBEEFCAFEF00DULL);
  w.put_str("campaign payload with enough bytes to be interesting");
  w.put_f64(2.718281828459045);
  w.put_i64(-12345);
  return workload::encode_checkpoint_file(0x1234ABCDu, 96, w.bytes());
}

TEST(TornWriteFuzz, CheckpointEveryTruncationDiagnosedNeverCrashes) {
  const std::string full = sample_checkpoint();
  ASSERT_NO_THROW(workload::decode_checkpoint_file(full));
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string torn = full.substr(0, len);
    try {
      workload::decode_checkpoint_file(torn);
      FAIL() << "truncation to " << len << " bytes decoded successfully";
    } catch (const util::CkptError& e) {
      EXPECT_FALSE(std::string(e.what()).empty()) << "len=" << len;
    }
  }
}

TEST(TornWriteFuzz, CheckpointEveryByteFlipDiagnosedNeverCrashes) {
  const std::string full = sample_checkpoint();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80}) {
      std::string rotted = full;
      rotted[pos] = static_cast<char>(rotted[pos] ^ flip);
      try {
        workload::decode_checkpoint_file(rotted);
        FAIL() << "flip 0x" << std::hex << int{flip} << " at byte "
               << std::dec << pos << " decoded successfully";
      } catch (const util::CkptError& e) {
        EXPECT_FALSE(std::string(e.what()).empty())
            << "pos=" << pos << " flip=" << int{flip};
      }
    }
  }
}

TEST(TornWriteFuzz, CheckpointOversizedPayloadLengthIsBounded) {
  // A rotted payload_size must not drive an allocation or an out-of-range
  // read; the header checksum catches it first, but even a forged header
  // (checksum recomputed) must fail on the real byte count.
  std::string full = sample_checkpoint();
  full.append("trailing garbage the header does not account for");
  EXPECT_THROW(workload::decode_checkpoint_file(full), util::CkptError);
}

// --- v2 record streams ---------------------------------------------------

std::string sample_intervals_text(int n) {
  std::vector<rs2hpm::IntervalRecord> recs;
  for (int i = 0; i < n; ++i) {
    rs2hpm::IntervalRecord rec;
    rec.interval = i;
    rec.nodes_sampled = 16;
    rec.busy_nodes = i % 17;
    rec.quad_surplus = 1000 + static_cast<std::uint64_t>(i);
    for (std::size_t c = 0; c < hpm::kNumCounters; ++c) {
      rec.delta.user[c] =
          static_cast<std::uint64_t>(i) * 100 + (hpm::kNumCounters - c);
      rec.delta.system[c] =
          static_cast<std::uint64_t>(i) * 7 + (hpm::kNumCounters - c);
    }
    recs.push_back(rec);
  }
  std::ostringstream out;
  analysis::save_intervals(out, recs);
  return out.str();
}

/// Recovering-mode load of mutated record text: must return or throw a
/// std::runtime_error with a message — never crash, never hang.
void expect_diagnosed(const std::string& text, const char* label) {
  std::istringstream in(text);
  analysis::ParseReport report;
  try {
    const auto recs = analysis::load_intervals(in, &report);
    // Loaded: the verdict must be coherent — either a committed clean
    // file, or the report says what was lost.
    if (report.committed) {
      EXPECT_FALSE(report.truncated) << label;
    } else {
      EXPECT_TRUE(report.truncated || report.lines_skipped > 0 ||
                  recs.empty())
          << label << ": uncommitted yet nothing reported";
    }
  } catch (const std::runtime_error& e) {
    // Header damage is fatal even in recovering mode; the reason must
    // still be precise.
    EXPECT_FALSE(std::string(e.what()).empty()) << label;
  }
}

TEST(TornWriteFuzz, RecordsEveryTruncationDiagnosedNeverCrashes) {
  const std::string full = sample_intervals_text(6);
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_diagnosed(full.substr(0, len),
                     ("truncate@" + std::to_string(len)).c_str());
  }
}

TEST(TornWriteFuzz, RecordsHeaderAndTrailerByteFlipsDiagnosed) {
  const std::string full = sample_intervals_text(6);
  const std::size_t header_end = full.find('\n') + 1;
  const std::size_t trailer_start = full.rfind("C,");
  ASSERT_NE(trailer_start, std::string::npos);
  ASSERT_LT(trailer_start, full.size());
  auto flip_at = [&](std::size_t pos) {
    std::string rotted = full;
    rotted[pos] = static_cast<char>(rotted[pos] ^ 0x08);
    expect_diagnosed(rotted, ("flip@" + std::to_string(pos)).c_str());
  };
  for (std::size_t pos = 0; pos < header_end; ++pos) flip_at(pos);
  for (std::size_t pos = trailer_start; pos < full.size(); ++pos) {
    flip_at(pos);
  }
}

TEST(TornWriteFuzz, RecordsStrictModeNeverAcceptsTruncation) {
  const std::string full = sample_intervals_text(4);
  // Stop one byte early: dropping only the final newline still leaves a
  // complete committed trailer line, which strict mode rightly accepts.
  for (std::size_t len = 0; len + 1 < full.size(); ++len) {
    std::istringstream in(full.substr(0, len));
    EXPECT_THROW(analysis::load_intervals(in), std::runtime_error)
        << "strict load accepted a " << len << "-byte prefix";
  }
  std::istringstream in(full);
  EXPECT_NO_THROW(analysis::load_intervals(in));
}

// --- signature store -----------------------------------------------------

power2::KernelDesc fuzz_kernel(const char* name, int bytes) {
  power2::KernelBuilder b(name);
  const auto s = b.stream(bytes, 8);
  const auto l = b.load(s);
  b.fma(l);
  return b.warmup(32).measure(256).build();
}

std::string store_text() {
  static const std::string text = [] {
    const std::string path = testing_support::scratch_path("store.txt");
    std::remove(path.c_str());
    power2::SignatureCache cache({}, {.path = path});
    cache.warm({fuzz_kernel("fuzz_a", 1 << 16), fuzz_kernel("fuzz_b", 1 << 14)});
    EXPECT_TRUE(cache.flush());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    std::remove(path.c_str());
    return out.str();
  }();
  return text;
}

/// Loads mutated store text through the real file path and asserts the
/// all-or-nothing contract: adopt a committed set, or adopt nothing that
/// the report does not account for — and never a bare prefix of an
/// uncommitted v2 store.
void expect_all_or_nothing(const std::string& text, const char* label) {
  const std::string path = testing_support::scratch_path("store_mut.txt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::map<std::uint64_t, power2::EventSignature> out;
  power2::SignatureStoreReport rep;
  ASSERT_NO_THROW(rep = power2::load_signature_store(
                      path, power2::core_config_hash({}), out))
      << label;
  if (rep.truncated || !rep.header_ok || !rep.core_hash_matched) {
    EXPECT_EQ(rep.loaded, 0u) << label;
    EXPECT_TRUE(out.empty()) << label;
  } else {
    // Committed store: every entry line is either adopted or individually
    // diagnosed as corrupt — none simply vanish.
    EXPECT_TRUE(rep.committed) << label;
    EXPECT_EQ(rep.loaded + rep.corrupt_lines, 2u) << label;
  }
  std::remove(path.c_str());
}

TEST(TornWriteFuzz, SignatureStoreEveryTruncationIsAllOrNothing) {
  const std::string full = store_text();
  // Any cut before the end of the trailer line un-commits the store.
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_all_or_nothing(full.substr(0, len),
                          ("truncate@" + std::to_string(len)).c_str());
  }
  expect_all_or_nothing(full, "full file");
}

TEST(TornWriteFuzz, SignatureStoreEveryByteFlipIsContained) {
  const std::string full = store_text();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') continue;  // line-structure edits change counts
    std::string rotted = full;
    rotted[pos] = static_cast<char>(rotted[pos] ^ 0x04);
    expect_all_or_nothing(rotted, ("flip@" + std::to_string(pos)).c_str());
  }
}

}  // namespace
}  // namespace p2sim
