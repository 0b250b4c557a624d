// Runs any registered experiment by name on a configurable campaign.
//
//   run_experiment --list
//   run_experiment table2
//   run_experiment --days 30 --nodes 32 fault_campaign
//   run_experiment --faults loss          # reference outage profile
//   run_experiment --checkpoint-dir ck --resume table2
//   run_experiment --days 270 --nodes 144 report     # the full study
//   run_experiment --outdir out --records out/run fig1 fig2 report
//
// Every table, figure and audit the repository reproduces is addressable
// here through the core experiment registry; `--faults` turns on the
// reference fault schedule so the degradation-tolerant pipeline can be
// watched doing its job on a small campaign.
//
// --checkpoint-dir makes the campaign durable: it writes a checkpoint
// generation at the configured cadence, and --resume picks the newest
// intact one back up.  A resumed run is bit-identical to an uninterrupted
// one.  --abort-after simulates an operator abort mid-campaign: partial
// outputs are removed and the exit status is nonzero, so schedulers never
// mistake a dead run for a finished one.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/analysis/record_io.hpp"
#include "src/core/registry.hpp"
#include "src/workload/checkpoint.hpp"

namespace {

void list_experiments() {
  std::printf("available experiments:\n");
  for (const p2sim::core::Experiment& e : p2sim::core::experiments()) {
    std::printf("  %-16s %s\n", e.name.c_str(), e.description.c_str());
  }
}

// --abort-after state for the kill-injection hook (a plain function
// pointer, so plain globals rather than captures).
std::int64_t g_abort_after = -1;
std::int64_t g_intervals_seen = 0;

void abort_after_hook(const char* point, std::int64_t /*value*/) {
  if (std::strcmp(point, "interval-end") != 0) return;
  if (g_abort_after >= 0 && ++g_intervals_seen >= g_abort_after) {
    throw std::runtime_error("campaign aborted by --abort-after");
  }
}

constexpr const char* kUsage =
    "usage: run_experiment [--days N] [--nodes N] [--seed S] [--waitstates] "
    "[--threads N] [--faults] [--signature-store FILE] [--checkpoint-dir DIR] "
    "[--checkpoint-every N] [--resume] [--records BASE] [--archive FILE] "
    "[--outdir DIR] [--abort-after N] <experiment>...\n"
    "       run_experiment --list\n";

[[noreturn]] void usage_and_exit() {
  std::fputs(kUsage, stderr);
  std::exit(2);
}

// Parses a whole token as a number: "16abc", "2x" and "" are errors
// (usage, exit 2), not 16 and 2.  Unsigned values also take a 0x prefix.
template <typename T>
T parse_number(std::string_view token) {
  int base = 10;
  if constexpr (std::is_unsigned_v<T>) {
    if (token.size() > 2 && token[0] == '0' &&
        (token[1] == 'x' || token[1] == 'X')) {
      token.remove_prefix(2);
      base = 16;
    }
  }
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, base);
  if (token.empty() || ec != std::errc{} || ptr != end) usage_and_exit();
  return value;
}

// Writes `text` to `path`; false when the file could not be written.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 30;
  int nodes = 32;
  std::uint64_t seed = p2sim::workload::DriverConfig{}.seed;
  bool waitstates = false;
  int threads = 1;
  bool faults = false;
  std::string store_path;
  std::string checkpoint_dir;
  std::int64_t checkpoint_every = 96;
  bool resume = false;
  std::string records_base;
  std::string archive_path;
  std::string outdir;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (arg == "--list") {
      list_experiments();
      return 0;
    } else if (arg == "--days") {
      days = parse_number<std::int64_t>(value());
    } else if (arg == "--nodes") {
      nodes = parse_number<int>(value());
    } else if (arg == "--seed") {
      seed = parse_number<std::uint64_t>(value());
    } else if (arg == "--waitstates") {
      waitstates = true;
    } else if (arg == "--threads") {
      threads = parse_number<int>(value());
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--signature-store") {
      store_path = value();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = value();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = parse_number<std::int64_t>(value());
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--records") {
      records_base = value();
    } else if (arg == "--archive") {
      archive_path = value();
    } else if (arg == "--outdir") {
      outdir = value();
    } else if (arg == "--abort-after") {
      g_abort_after = parse_number<std::int64_t>(value());
    } else if (arg == "--help") {
      std::printf(
          "%s"
          "--days/--nodes: campaign size (default 30 x 32; paper 270 x 144)\n"
          "--seed S (decimal or 0x hex); --waitstates: wait-state counters\n"
          "--threads N: node-advance workers (0 = one per core)\n"
          "--signature-store FILE: persist measured kernel signatures\n"
          "--checkpoint-dir DIR: a durable checkpoint every\n"
          "  --checkpoint-every N intervals (default 96 = one day);\n"
          "  --resume continues from the newest intact generation\n"
          "--records BASE: BASE.intervals and BASE.jobs (record_io v2)\n"
          "--archive FILE: a columnar archive for campaign_query\n"
          "--outdir DIR: also DIR/<name>.txt, and DIR/<name>.csv per figure\n"
          "--abort-after N: abort after N intervals (partial outputs are\n"
          "  removed, exit status 1)\n"
          "Outputs are bit-identical for every --threads value, across\n"
          "resume and with or without a signature store.\n",
          kUsage);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      usage_and_exit();
    } else {
      names.push_back(arg);
    }
  }
  if (days <= 0 || nodes <= 0) usage_and_exit();
  if (names.empty()) {
    std::fprintf(stderr, "no experiment named; try --list\n");
    return 2;
  }

  p2sim::core::Sp2Config cfg = p2sim::core::Sp2Config::small(days, nodes);
  cfg.driver.seed = seed;
  if (waitstates) {
    cfg.driver.node.monitor.selection =
        p2sim::hpm::CounterSelection::kWaitStates;
  }
  cfg.threads() = threads;
  cfg.signature_store() = store_path;
  cfg.checkpoint().dir = checkpoint_dir;
  cfg.checkpoint().every_intervals = checkpoint_every;
  cfg.checkpoint().resume = resume;
  cfg.archive() = archive_path;
  if (faults) cfg.faults() = p2sim::fault::FaultConfig::reference();
  if (g_abort_after >= 0) {
    p2sim::workload::set_checkpoint_test_hook(&abort_after_hook);
  }
  p2sim::core::Sp2Simulation sim(cfg);

  // Output files exist (empty) from the start, so an abort mid-run has
  // real partial outputs to clean up — exactly what a crashed production
  // run leaves behind.
  const std::string intervals_path =
      records_base.empty() ? "" : records_base + ".intervals";
  const std::string jobs_path =
      records_base.empty() ? "" : records_base + ".jobs";
  if (!records_base.empty()) {
    std::ofstream(intervals_path, std::ios::trunc);
    std::ofstream(jobs_path, std::ios::trunc);
  }

  const auto remove_partial_outputs = [&] {
    if (records_base.empty()) return;
    std::remove(intervals_path.c_str());
    std::remove(jobs_path.c_str());
  };

  try {
    for (const std::string& name : names) {
      const p2sim::core::Experiment* exp = p2sim::core::find_experiment(name);
      if (exp == nullptr) {
        std::fprintf(stderr, "unknown experiment '%s'; try --list\n",
                     name.c_str());
        remove_partial_outputs();
        return 2;
      }
      const std::string text = p2sim::core::render(*exp, sim);
      std::fputs(text.c_str(), stdout);
      if (!outdir.empty()) {
        std::filesystem::create_directories(outdir);
        const std::string base = outdir + "/" + exp->name;
        if (!write_file(base + ".txt", text) ||
            (exp->csv && !write_file(base + ".csv", exp->csv(sim)))) {
          std::fprintf(stderr, "failed writing %s.*\n", base.c_str());
          remove_partial_outputs();
          return 1;
        }
      }
    }
    if (!records_base.empty()) {
      std::ofstream fi(intervals_path, std::ios::trunc);
      p2sim::analysis::save_intervals(fi, sim.campaign().intervals);
      std::ofstream fj(jobs_path, std::ios::trunc);
      p2sim::analysis::save_jobs(fj, sim.campaign().jobs);
      if (!fi.good() || !fj.good()) {
        std::fprintf(stderr, "failed writing records to %s.*\n",
                     records_base.c_str());
        remove_partial_outputs();
        return 1;
      }
    }
  } catch (const std::exception& e) {
    // A mid-run abort must not masquerade as success: drop whatever
    // half-written outputs exist and fail loudly.  With --checkpoint-dir
    // the committed generations survive for a later --resume.
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    remove_partial_outputs();
    return 1;
  }
  return 0;
}
