#include "src/power2/signature.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/power2/field_table.hpp"
#include "src/power2/signature_store.hpp"

namespace p2sim::power2 {
namespace {

P2SIM_PAR_SAFE double rate(std::uint64_t events, std::uint64_t cycles) {
  return cycles ? static_cast<double>(events) / static_cast<double>(cycles)
                : 0.0;
}

/// Derives per-cycle rates from a finished run (the arithmetic half of
/// measure_signature, shared with the quiet path).
P2SIM_PAR_SAFE EventSignature signature_from_run(const RunResult& r) {
  const std::uint64_t c = r.counts.cycles;
  EventSignature s;
  s.cycles_per_iter = r.cycles_per_iter();
  for (const ScaledField& f : kScaledFields)
    s.*(f.rate) = rate(r.counts.*(f.count), c);
  return s;
}

P2SIM_PAR_SAFE std::uint64_t rounded(double x) {
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
}

}  // namespace

EventCounts EventSignature::scale(double cycles) const {
  EventCounts ev;
  if (cycles <= 0.0) return ev;
  ev.cycles = rounded(cycles);
  scale_into(cycles, ev);
  return ev;
}

void EventSignature::scale_into(double cycles, EventCounts& ev) const {
  if (cycles <= 0.0) return;
  // One tight loop over the field table: each rate scales and rounds
  // independently, exactly as the former named-field statements did.
  for (const ScaledField& f : kScaledFields)
    ev.*(f.count) += rounded(this->*(f.rate) * cycles);
}

EventSignature measure_signature(Power2Core& core, const KernelDesc& kernel) {
  core.reset();
  const RunResult r = core.run(kernel);
  return signature_from_run(r);
}

QuietMeasurement measure_quiet(const CoreConfig& core_cfg,
                               const KernelDesc& kernel) {
  Power2Core core(core_cfg);
  QuietMeasurement m;
  m.run = core.run_counted(kernel, kernel.measure_iters, &m.wall_us);
  m.sig = signature_from_run(m.run);
  return m;
}

SignatureCache::SignatureCache(const CoreConfig& core_cfg,
                               SignatureStoreConfig store)
    : core_cfg_(core_cfg),
      core_hash_(core_config_hash(core_cfg)),
      store_(std::move(store)) {
  if (store_.path.empty() || !store_.read) return;
  const SignatureStoreReport rep =
      load_signature_store(store_.path, core_hash_, table_);
  stats_.store_loaded = rep.loaded;
  stats_.store_corrupt_lines = rep.corrupt_lines;
  stats_.store_rejected =
      rep.file_found && (!rep.core_hash_matched || rep.truncated);
}

void SignatureCache::warm(const std::vector<KernelDesc>& kernels,
                          const BatchMeasure& measure) {
  std::vector<KernelDesc> missing;
  std::vector<std::uint64_t> hashes;
  std::set<std::uint64_t> seen;
  for (const KernelDesc& k : kernels) {
    const std::uint64_t h = k.content_hash();
    if (table_.contains(h) || !seen.insert(h).second) continue;
    hashes.push_back(h);
    missing.push_back(k);
  }
  if (missing.empty()) return;
  std::vector<QuietMeasurement> results(missing.size());
  if (measure) {
    measure(missing, results);
  } else {
    for (std::size_t i = 0; i < missing.size(); ++i) {
      results[i] = measure_quiet(core_cfg_, missing[i]);
    }
  }
  for (std::size_t i = 0; i < missing.size(); ++i) {
    table_.emplace(hashes[i], results[i].sig);
    unused_runs_.emplace(hashes[i], std::move(results[i]));
  }
  stats_.measured += missing.size();
  dirty_ = true;
}

const EventSignature& SignatureCache::get(const KernelDesc& kernel) const {
  const auto it = table_.find(kernel.content_hash());
  if (it == table_.end()) {
    throw std::out_of_range("SignatureCache::get: kernel '" + kernel.name +
                            "' was never warmed");
  }
  return it->second;
}

void SignatureCache::note_first_use(const KernelDesc& kernel) {
  if (unused_runs_.empty()) return;  // skips the hash when all are noted
  const auto it = unused_runs_.find(kernel.content_hash());
  if (it == unused_runs_.end()) return;
  Power2Core::note_kernel_run(it->second.run, it->second.wall_us);
  first_uses_.push_back(it->first);
  unused_runs_.erase(it);
}

void SignatureCache::restore_first_uses(
    const std::vector<std::uint64_t>& hashes) {
  for (std::uint64_t h : hashes) unused_runs_.erase(h);
  first_uses_ = hashes;
}

bool SignatureCache::flush() {
  if (store_.path.empty() || !store_.write || !dirty_) return true;
  if (!save_signature_store(store_.path, core_hash_, table_)) return false;
  dirty_ = false;
  return true;
}

}  // namespace p2sim::power2
