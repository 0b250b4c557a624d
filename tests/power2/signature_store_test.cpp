// Persistence round-trip for the signature store: signatures written by
// flush() must reload bit-identically, a corrupt line must degrade to
// re-measurement of just that kernel, and a core-config change must
// invalidate the whole file (measured rates are config-dependent).  Also
// the first-use telemetry contract: a measured kernel's run telemetry
// fires once, at its first use, and a store hit never fires.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/power2/kernel_desc.hpp"
#include "src/power2/signature.hpp"
#include "src/power2/signature_store.hpp"
#include "src/telemetry/session.hpp"

namespace p2sim::power2 {
namespace {

KernelDesc kernel_a() {
  KernelBuilder b("store_a");
  const auto s = b.stream(1 << 20, 8);
  const auto l = b.load(s);
  b.fma(l);
  b.fp_add();
  return b.warmup(64).measure(2048).build();
}

KernelDesc kernel_b() {
  KernelBuilder b("store_b");
  const auto s = b.stream(1 << 16, 16);
  const auto l = b.load(s);
  b.fp_mul(l);
  return b.warmup(32).measure(1024).build();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
}

std::string temp_store(const char* name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(SignatureStore, RoundTripIsBitIdentical) {
  const std::string path = temp_store("p2sim_store_roundtrip.txt");

  SignatureCache writer({}, {.path = path});
  writer.warm({kernel_a(), kernel_b()});
  const EventSignature sig_a = writer.get(kernel_a());
  const EventSignature sig_b = writer.get(kernel_b());
  EXPECT_EQ(writer.stats().measured, 2u);
  ASSERT_TRUE(writer.flush());

  SignatureCache reader({}, {.path = path});
  const SignatureCache::Stats loaded = reader.stats();
  EXPECT_EQ(loaded.store_loaded, 2u);
  EXPECT_EQ(loaded.store_corrupt_lines, 0u);
  EXPECT_FALSE(loaded.store_rejected);

  // Hexfloat serialization: every double survives the disk trip exactly,
  // and the loaded entries serve lookups without a warm().
  EXPECT_EQ(reader.get(kernel_a()), sig_a);
  EXPECT_EQ(reader.get(kernel_b()), sig_b);
  EXPECT_EQ(reader.size(), 2u);
  reader.warm({kernel_a(), kernel_b()});
  EXPECT_EQ(reader.stats().measured, 0u);

  std::remove(path.c_str());
}

TEST(SignatureStore, CorruptLineFallsBackToMeasurement) {
  const std::string path = temp_store("p2sim_store_corrupt.txt");

  SignatureCache writer({}, {.path = path});
  writer.warm({kernel_a(), kernel_b()});
  const EventSignature sig_a = writer.get(kernel_a());
  const EventSignature sig_b = writer.get(kernel_b());
  ASSERT_TRUE(writer.flush());

  // Damage exactly one entry: the per-line checksum no longer matches.
  std::string body = read_file(path);
  const std::size_t pos = body.find("\nsig ");
  ASSERT_NE(pos, std::string::npos);
  body[pos + 1] = 'S';
  write_file(path, body);

  SignatureCache reader({}, {.path = path});
  const SignatureCache::Stats loaded = reader.stats();
  EXPECT_EQ(loaded.store_loaded, 1u);
  EXPECT_EQ(loaded.store_corrupt_lines, 1u);
  EXPECT_FALSE(loaded.store_rejected);

  // The surviving entry loads; warm() re-measures the damaged one to the
  // same value (measurement is deterministic).
  reader.warm({kernel_a(), kernel_b()});
  EXPECT_EQ(reader.get(kernel_a()), sig_a);
  EXPECT_EQ(reader.get(kernel_b()), sig_b);
  EXPECT_EQ(reader.stats().measured, 1u);

  std::remove(path.c_str());
}

TEST(SignatureStore, CoreConfigMismatchInvalidatesStore) {
  const std::string path = temp_store("p2sim_store_corecfg.txt");

  // A cache-resident working set: its miss rate is what a different cache
  // geometry visibly changes (streaming kernels miss either way).
  KernelBuilder b("store_resident");
  const auto s = b.stream(64 * 1024, 8);
  const auto l = b.load(s);
  b.fp_add(l);
  const KernelDesc resident = b.warmup(16384).measure(8192).build();

  SignatureCache writer({}, {.path = path});
  writer.warm({resident});
  ASSERT_TRUE(writer.flush());

  CoreConfig tiny;
  tiny.dcache = {.size_bytes = 4096, .line_bytes = 256, .ways = 2};
  SignatureCache reader(tiny, {.path = path});
  const SignatureCache::Stats loaded = reader.stats();
  EXPECT_TRUE(loaded.store_rejected);
  EXPECT_EQ(loaded.store_loaded, 0u);

  // And the mismatched-config measurement really is different, which is
  // why the invalidation matters.
  SignatureCache fresh;
  reader.warm({resident});
  fresh.warm({resident});
  EXPECT_GT(reader.get(resident).dcache_miss, fresh.get(resident).dcache_miss);
  EXPECT_EQ(reader.stats().measured, 1u);

  std::remove(path.c_str());
}

TEST(SignatureStore, MissingFileIsCleanColdStart) {
  const std::string path = temp_store("p2sim_store_missing.txt");
  SignatureCache cache({}, {.path = path});
  const SignatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.store_loaded, 0u);
  EXPECT_EQ(s.store_corrupt_lines, 0u);
  EXPECT_FALSE(s.store_rejected);
  cache.warm({kernel_a()});
  EXPECT_EQ(cache.stats().measured, 1u);
  ASSERT_TRUE(cache.flush());
  EXPECT_FALSE(read_file(path).empty());
  std::remove(path.c_str());
}

TEST(SignatureStore, WriteDisabledLeavesNoFile) {
  const std::string path = temp_store("p2sim_store_nowrite.txt");
  SignatureCache cache({}, {.path = path, .read = true, .write = false});
  cache.warm({kernel_a()});
  EXPECT_TRUE(cache.flush());  // nothing configured to write: success
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(SignatureStore, WarmPublishesStoreAndMeasurements) {
  const std::string path = temp_store("p2sim_store_warm.txt");

  {
    SignatureCache writer({}, {.path = path});
    writer.warm({kernel_a()});
    ASSERT_TRUE(writer.flush());
  }

  SignatureCache cache({}, {.path = path});
  cache.warm({kernel_a(), kernel_b()});
  EXPECT_EQ(cache.size(), 2u);
  const SignatureCache::Stats s = cache.stats();
  EXPECT_EQ(s.store_loaded, 1u);
  EXPECT_EQ(s.measured, 1u);  // only kernel_b was missing

  // Post-warm lookups serve both the store-loaded and the freshly
  // measured kernel, and measure nothing more.
  SignatureCache direct;
  direct.warm({kernel_a(), kernel_b()});
  EXPECT_EQ(cache.get(kernel_a()), direct.get(kernel_a()));
  EXPECT_EQ(cache.get(kernel_b()), direct.get(kernel_b()));
  EXPECT_EQ(cache.stats().measured, 1u);

  // flush() persists the union; a third cache sees both without measuring.
  ASSERT_TRUE(cache.flush());
  SignatureCache reader({}, {.path = path});
  EXPECT_EQ(reader.stats().store_loaded, 2u);
  reader.warm({kernel_a(), kernel_b()});
  EXPECT_EQ(reader.stats().measured, 0u);

  std::remove(path.c_str());
}

std::uint64_t kernel_runs(const telemetry::Session& session) {
  for (const auto& m : session.registry.snapshot()) {
    if (m.name == "p2sim_core_run_cycles") return m.observations;
  }
  return 0;
}

TEST(SignatureStore, FirstUseTelemetryFiresOncePerMeasuredKernel) {
  const std::string path = temp_store("p2sim_store_first_use.txt");
  {
    SignatureCache writer({}, {.path = path});
    writer.warm({kernel_a()});
    ASSERT_TRUE(writer.flush());
  }

  telemetry::Session session;
  telemetry::ScopedSession scoped(session);
  SignatureCache cache({}, {.path = path});
  cache.warm({kernel_a(), kernel_b()});  // a: store hit, b: measured
  EXPECT_EQ(kernel_runs(session), 0u);   // measurement itself is quiet

  cache.note_first_use(kernel_a());
  EXPECT_EQ(kernel_runs(session), 0u);  // a store hit never fires
  cache.note_first_use(kernel_b());
  EXPECT_EQ(kernel_runs(session), 1u);
  cache.note_first_use(kernel_b());
  cache.note_first_use(kernel_a());
  EXPECT_EQ(kernel_runs(session), 1u);  // exactly once per measured kernel
  EXPECT_EQ(cache.first_uses(),
            std::vector<std::uint64_t>{kernel_b().content_hash()});

  // A resume marks the checkpointed first uses as already fired.
  SignatureCache resumed({}, {.path = path});
  resumed.warm({kernel_a(), kernel_b()});
  resumed.restore_first_uses(cache.first_uses());
  resumed.note_first_use(kernel_b());
  EXPECT_EQ(kernel_runs(session), 1u);
  EXPECT_EQ(resumed.first_uses(), cache.first_uses());

  std::remove(path.c_str());
}

TEST(SignatureStore, TruncatedStoreIsRejectedAndRebuilt) {
  const std::string path = temp_store("p2sim_store_truncated.txt");

  SignatureCache writer({}, {.path = path});
  writer.warm({kernel_a(), kernel_b()});
  const EventSignature sig_a = writer.get(kernel_a());
  ASSERT_TRUE(writer.flush());

  // The writer "died" before the commit trailer: the surviving prefix is
  // intact but provably incomplete.
  std::string body = read_file(path);
  const std::size_t end_at = body.rfind("end count=");
  ASSERT_NE(end_at, std::string::npos);
  body.resize(end_at);
  write_file(path, body);

  SignatureCache reader({}, {.path = path});
  const SignatureCache::Stats loaded = reader.stats();
  EXPECT_TRUE(loaded.store_rejected);
  EXPECT_EQ(loaded.store_loaded, 0u);

  // Affected kernels re-measure on warm() (bit-identical: measurement is
  // deterministic)...
  reader.warm({kernel_a()});
  EXPECT_EQ(reader.get(kernel_a()), sig_a);
  EXPECT_EQ(reader.stats().measured, 1u);

  // ...and the next flush rebuilds a complete, committed store.
  ASSERT_TRUE(reader.flush());
  SignatureCache rebuilt({}, {.path = path});
  EXPECT_FALSE(rebuilt.stats().store_rejected);
  EXPECT_EQ(rebuilt.stats().store_loaded, 1u);

  std::remove(path.c_str());
}

TEST(SignatureStore, MidLineTruncationRejectsWholeStore) {
  const std::string path = temp_store("p2sim_store_midline.txt");

  SignatureCache writer({}, {.path = path});
  writer.warm({kernel_a(), kernel_b()});
  ASSERT_TRUE(writer.flush());

  // Tear inside the last entry line: the trailer is gone and the final
  // "sig" line is half a line.
  std::string body = read_file(path);
  const std::size_t last_sig = body.rfind("\nsig ");
  ASSERT_NE(last_sig, std::string::npos);
  body.resize(last_sig + 20);
  write_file(path, body);

  std::map<std::uint64_t, EventSignature> out;
  const SignatureStoreReport rep =
      load_signature_store(path, core_config_hash({}), out);
  EXPECT_TRUE(rep.file_found);
  EXPECT_TRUE(rep.header_ok);
  EXPECT_TRUE(rep.core_hash_matched);
  EXPECT_FALSE(rep.committed);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.loaded, 0u);  // nothing adopted, not even the intact line
  EXPECT_TRUE(out.empty());

  std::remove(path.c_str());
}

TEST(SignatureStore, LegacyV1StoreWithoutTrailerStillLoads) {
  const std::string path = temp_store("p2sim_store_v1.txt");

  SignatureCache writer({}, {.path = path});
  writer.warm({kernel_a(), kernel_b()});
  ASSERT_TRUE(writer.flush());

  // Rewrite the store as a v1 file: v1 header, no commit trailer.
  std::string body = read_file(path);
  const std::size_t ver = body.find(" v2 ");
  ASSERT_NE(ver, std::string::npos);
  body.replace(ver, 4, " v1 ");
  const std::size_t end_at = body.rfind("end count=");
  ASSERT_NE(end_at, std::string::npos);
  body.resize(end_at);
  write_file(path, body);

  std::map<std::uint64_t, EventSignature> out;
  const SignatureStoreReport rep =
      load_signature_store(path, core_config_hash({}), out);
  EXPECT_TRUE(rep.core_hash_matched);
  EXPECT_FALSE(rep.committed);  // v1 predates the trailer
  EXPECT_FALSE(rep.truncated);
  EXPECT_EQ(rep.loaded, 2u);
  EXPECT_EQ(rep.corrupt_lines, 0u);

  std::remove(path.c_str());
}

TEST(SignatureStore, CoreConfigHashCoversCacheGeometry) {
  CoreConfig base;
  CoreConfig other = base;
  other.dcache.ways = base.dcache.ways * 2;
  EXPECT_NE(core_config_hash(base), core_config_hash(other));
  CoreConfig seed = base;
  seed.rng_seed = base.rng_seed + 1;
  EXPECT_NE(core_config_hash(base), core_config_hash(seed));
  EXPECT_EQ(core_config_hash(base), core_config_hash(CoreConfig{}));
}

}  // namespace
}  // namespace p2sim::power2
