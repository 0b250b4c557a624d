// The repository benchmark: paper-scale (144-node) campaigns timed end to
// end and, in a separate traced run, layer by layer.
//
//   p2sim_perfbench --workload <warm|scraped> --seed <n> --seconds <s>
//                   --trace <0|1> --rundir <dir> --store <file> [--days <d>]
//                   [--expect-fingerprint <hex>]
//                   [--expect-faulted-fingerprint <hex>]
//   p2sim_perfbench --prepare-store <file> --workload <w> --seed <n>
//                   [--days <d>]
//
// perfbench/run.py builds this binary, prepares the per-seed signature
// store once (the --prepare-store mode) and forwards its command-line flags.
// Every operation is checked: campaign fingerprints (Table 2 text, archive
// bytes, loss report) must agree across repetitions, thread counts and
// resume, and with the recorded values when given; every archive query
// must render the same bytes as its in-memory oracle; every scrape must be
// a well-formed 200.  The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/loss.hpp"
#include "src/analysis/tables.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/cluster/node.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/fault.hpp"
#include "src/power2/signature.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/checksum.hpp"
#include "src/util/http_client.hpp"
#include "src/util/http_server.hpp"
#include "src/util/task_pool.hpp"
#include "src/workload/checkpoint.hpp"
#include "src/workload/driver.hpp"
#include "src/workload/jobgen.hpp"

namespace {

using namespace p2sim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  bool scraped;  ///< telemetry session, MonitorService and scrape client
  int reserved;  ///< cores left to the HTTP server and the scrape client
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr std::array<Workload, 2> kWorkloads{{
    {"warm", false, 0},
    {"scraped", true, 2},
}};

/// The campaigns a run drives.  Both workloads time kWarm end to end; the
/// traced run adds one kCold and one kFaulted campaign as layer probes
/// (their wall time swings with the host's CPU and disk by more than an
/// end-to-end bound can absorb; see README.md).
enum class Variant {
  kWarm,     ///< reads the signature store prepared for the seed
  kCold,     ///< no signature store: Level A measures every kernel
  kFaulted,  ///< the store, reference faults, daily durable checkpoints
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t days = 30;
  std::string store;
  std::string rundir;
  std::string expect_fingerprint;          ///< the clean default campaign
  std::string expect_faulted_fingerprint;  ///< the faulted one
  std::string prepare_store;
};

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int workload_threads(const Workload& w) {
  return std::max(1, host_cores() - w.reserved);
}

/// The campaign a workload runs: the paper's 144-node machine, `days`
/// long.  Seed `n` offsets the job generator's seed by n, so it draws its
/// own jobs (sizes, runtimes, codes, kernels) over the default campaign's
/// arrival process; seed 0 is the default campaign.  Holding the arrivals
/// fixed keeps the amount of work comparable across seeds.
core::Sp2Config campaign_config(const Options& o, int threads,
                                Variant variant) {
  core::Sp2Config cfg;
  cfg.driver.days = o.days;
  cfg.driver.jobgen.seed += o.seed;
  cfg.threads() = threads;
  if (variant != Variant::kCold) cfg.signature_store() = o.store;
  if (variant == Variant::kFaulted) {
    cfg.faults() = fault::FaultConfig::reference();
    cfg.checkpoint().dir = o.rundir + "/ckpt";  // default daily cadence
  }
  cfg.archive() = o.rundir + "/campaign.p2a";
  return cfg;
}

// --- samples and the result line ------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile on a fixed ladder that leaves at least ten of
/// `planned` samples beyond it.  It depends on the planned sample count,
/// not the realised one, so a run that lands a few samples short still
/// reports the same percentile as its neighbours.
double tail_percentile(std::size_t planned) {
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 97.5, 98.0, 99.0, 99.5, 99.9}) {
    if (static_cast<double>(planned) * (100.0 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Counts every checked operation; a failed check makes the run incorrect.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("  !! %s\n", what.c_str());
    }
  }
};

// --- spans ------------------------------------------------------------------

/// Wall-clock spans the benchmark records around its calls into each layer.
/// Kept in memory and written as a Chrome trace when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double begin_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, std::string name) : log_(log) {
      if (log_ != nullptr) id_ = log_->open(std::move(name));
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_us - s.begin_us) / 1000.0);
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << json_number(s.begin_us)
          << ",\"dur\":" << json_number(s.end_us - s.begin_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  int open(std::string name) {
    spans_.push_back({std::move(name), current_, now_us(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

// --- the scrape client ------------------------------------------------------

/// The request rate bench/bench_scrape_overhead holds its campaign under
/// (8 clients, each pausing 100 ms between requests): the load the
/// monitoring plane's < 2% non-perturbation budget is measured at.  Here
/// it comes from one open-loop client, so the rate stays fixed however
/// slowly the server answers.
constexpr double kScrapesPerSecond = 80.0;

struct ScrapeStats {
  std::vector<double> latency_ms;  ///< completion minus due time
  std::vector<double> lag_ms;      ///< send time minus due time
  std::uint64_t bytes = 0;
  std::int64_t errors = 0;
};

/// One client thread sending open-loop scrapes at kScrapesPerSecond,
/// alternating /metrics and /api/jobs.  Each latency runs from the moment
/// the scrape was due, so a stalled server also charges the scrapes queued
/// behind the stall.
class Scraper {
 public:
  Scraper(std::uint16_t port, ScrapeStats* stats)
      : thread_([this, port, stats] { loop(port, stats); }) {}
  ~Scraper() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

 private:
  void loop(std::uint16_t port, ScrapeStats* stats) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kScrapesPerSecond));
    const Clock::time_point start = Clock::now();
    for (std::int64_t k = 0; !stop_.load(std::memory_order_acquire); ++k) {
      const Clock::time_point due = start + k * period;
      std::this_thread::sleep_until(due);
      if (stop_.load(std::memory_order_acquire)) break;
      const Clock::time_point sent = Clock::now();
      const bool metrics = k % 2 == 0;
      const util::HttpFetch got = util::http_get(
          "127.0.0.1", port, metrics ? "/metrics" : "/api/jobs?limit=8",
          /*timeout_ms=*/1000);
      const Clock::time_point done = Clock::now();
      const bool ok =
          got.ok && got.status == 200 &&
          (metrics ? got.body.find("# TYPE p2sim_") != std::string::npos
                   : got.body.starts_with("{\"jobs_seen\":") &&
                         got.body.ends_with("]}\n"));
      stats->latency_ms.push_back(seconds_between(due, done) * 1000.0);
      stats->lag_ms.push_back(seconds_between(due, sent) * 1000.0);
      stats->bytes += got.body.size();
      if (!ok) ++stats->errors;
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it uses stop_
};

/// The monitoring plane one scraped campaign runs under.
struct ScrapePlane {
  telemetry::Session session;
  telemetry::MonitorService service{session};
  util::HttpServer server;

  bool start(std::string* error) {
    util::HttpServerConfig cfg;
    cfg.observer = &service;
    return server.start(
        cfg, [this](const util::HttpRequest& r) { return service.handle(r); },
        error);
  }
};

// --- the benchmark ----------------------------------------------------------

/// Level A kernel runs recorded in a session so far.
double run_count(const telemetry::Session& session) {
  for (const auto& m : session.registry.snapshot()) {
    if (m.name == "p2sim_core_run_cycles") {
      return static_cast<double>(m.observations);
    }
  }
  return 0.0;
}

/// One campaign, from campaign() to the paper's tables, figures and loss
/// report, plus the fingerprint its outputs must match.
struct CampaignRun {
  double wall_s = 0.0;
  double tables_ms = 0.0;
  std::string fingerprint;
  std::unique_ptr<core::Sp2Simulation> sim;
  std::unique_ptr<workload::PhaseTimings> timings;
  /// Read from a traced campaign's telemetry session.
  double kernels_measured = 0.0;  ///< Level A runs before the tables
  double jobs_completed = 0.0;
  double jobs_requeued = 0.0;
  double ckpt_writes = 0.0;
  double metrics_text_ms = 0.0;  ///< MonitorService::metrics_text, direct
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// What reproducing the paper from a finished campaign yields: Tables 2-4,
/// Figures 1-5 and the loss report.  Table 2 and the loss report are kept
/// for the fingerprint.
struct PaperOutputs {
  std::string table2;
  std::string loss;
};

PaperOutputs paper_outputs(core::Sp2Simulation& sim) {
  PaperOutputs out;
  out.table2 = analysis::format_table2(sim.table2());
  (void)analysis::format_table3(sim.table3());
  (void)analysis::format_table4(sim.table4());
  (void)sim.fig1();
  (void)sim.fig2();
  (void)sim.fig3();
  (void)sim.fig4();
  (void)sim.fig5();
  out.loss = analysis::format_measurement_loss(sim.measurement_loss());
  return out;
}

/// FNV-1a-64 over the Table 2 text, the archive bytes and the loss report.
std::string fingerprint(const PaperOutputs& paper,
                        const std::string& archive_path) {
  const std::uint64_t h = util::fnv1a64(paper.table2 + '\x1e' +
                                        read_file(archive_path) + '\x1e' +
                                        paper.loss);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The four canonical archive queries, rendered.
constexpr std::array<const char*, 4> kQueries{"top_users", "miss_ratio",
                                              "paging", "aggregate"};

std::string run_query(std::size_t q, const archive::TableSource& jobs,
                      const archive::TableSource& intervals,
                      archive::ScanStats* stats) {
  const std::vector<const archive::TableSource*> src{&jobs};
  switch (q) {
    case 0: {
      const auto r = archive::top_users(src, 10);
      *stats = r.scan;
      return archive::render_top_users(r);
    }
    case 1: {
      const auto r = archive::miss_ratio_distribution(src, 64);
      *stats = r.scan;
      return archive::render_miss_ratio(r);
    }
    case 2: {
      const auto r = archive::paging_suspects(src);
      *stats = r.scan;
      return archive::render_paging(r);
    }
    default: {
      archive::ColumnAggregate agg;
      if (!archive::aggregate_column(intervals, "user.cycles", &agg)) {
        return "no such column";
      }
      *stats = agg.scan;
      return archive::render_aggregate(agg);
    }
  }
}

class Bench {
 public:
  explicit Bench(const Options& o)
      : o_(o), w_(*o.workload), threads_(workload_threads(*o.workload)) {}

  int run();

 private:
  core::Sp2Config config(int threads, Variant v = Variant::kWarm) const {
    return campaign_config(o_, threads, v);
  }

  double setup_once();
  CampaignRun campaign(int threads, bool traced, Variant v = Variant::kWarm);
  void check_fingerprint(const CampaignRun& r, const char* what,
                         Variant v = Variant::kWarm);
  double resume_once();
  void build_oracle(const workload::CampaignResult& result);
  void run_queries(std::size_t count);
  void layer_probes(const CampaignRun& traced);
  void variant_probes(const CampaignRun& warm);
  void add(std::string name, double value, const char* unit) {
    layer_.push_back({std::move(name), value, unit});
  }
  void emit(const std::vector<Metric>& metrics);

  const Options& o_;
  const Workload& w_;
  const int threads_;
  Ledger ledger_;
  SpanLog spans_;
  SpanLog* tracing_ = nullptr;  ///< &spans_ during traced work

  /// Per config (clean, faulted): the first campaign's fingerprint.
  std::map<bool, std::string> reference_fp_;
  /// The query results the in-memory oracle renders.
  std::optional<std::array<std::string, kQueries.size()>> oracle_;
  std::vector<double> query_ms_;
  archive::ScanStats query_scan_;
  ScrapeStats scrapes_;
  double server_request_ms_ = 0.0;
  std::vector<Metric> layer_;
};

/// Everything a campaign needs before it starts: the config, the signature
/// store opened as WorkloadDriver opens it and the monitoring server's bind.
/// Emptying the run directory is the benchmark's own housekeeping and is
/// not timed.
double Bench::setup_once() {
  fs::remove_all(o_.rundir);
  fs::create_directories(o_.rundir);
  const Clock::time_point t0 = Clock::now();
  const core::Sp2Config cfg = config(threads_);
  {
    SpanLog::Scope span(tracing_, "power2.store_load");
    power2::SignatureStoreConfig store{cfg.signature_store(), true, false};
    const power2::SignatureCache cache(cfg.driver.core, store);
    ledger_.check(cache.stats().store_loaded > 0,
                  "signature store " + cfg.signature_store() + " is empty");
  }
  if (w_.scraped) {
    ScrapePlane plane;
    std::string error;
    ledger_.check(plane.start(&error), "server bind failed: " + error);
    plane.server.stop();
  }
  return seconds_between(t0, Clock::now());
}

CampaignRun Bench::campaign(int threads, bool traced, Variant v) {
  CampaignRun out;
  core::Sp2Config cfg = config(threads, v);
  if (traced) {
    out.timings = std::make_unique<workload::PhaseTimings>();
    cfg.driver.phase_timings = out.timings.get();
  }
  std::optional<ScrapePlane> plane;
  std::unique_ptr<Scraper> scraper;
  std::optional<telemetry::Session> session;
  telemetry::Session* installed = nullptr;
  if (w_.scraped && v == Variant::kWarm) {
    plane.emplace();
    std::string error;
    ledger_.check(plane->start(&error), "server bind failed: " + error);
    cfg.driver.observer = &plane->service;
    scraper = std::make_unique<Scraper>(plane->server.port(), &scrapes_);
    installed = &plane->session;
  } else if (traced) {
    installed = &session.emplace();
  }

  out.sim = std::make_unique<core::Sp2Simulation>(cfg);
  core::Sp2Simulation& sim = *out.sim;
  SpanLog* spans = traced ? tracing_ : nullptr;
  PaperOutputs paper;
  {
    std::optional<telemetry::ScopedSession> scoped;
    if (installed != nullptr) scoped.emplace(*installed);
    SpanLog::Scope span(spans, "workload.campaign");
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope run(spans, "workload.run");
      sim.campaign();
    }
    // Level A runs so far are the campaign's signature measurements; the
    // tables below add Table 4's two reference kernels.
    if (installed != nullptr) out.kernels_measured = run_count(*installed);
    const Clock::time_point t1 = Clock::now();
    {
      SpanLog::Scope tables(spans, "analysis.tables");
      paper = paper_outputs(sim);
    }
    const Clock::time_point t2 = Clock::now();
    out.wall_s = seconds_between(t0, t2);
    out.tables_ms = seconds_between(t1, t2) * 1000.0;
  }
  scraper.reset();
  if (plane) {
    plane->server.stop();
    for (const auto& m : plane->session.registry.snapshot()) {
      if (m.name == "p2sim_server_request_seconds" && m.observations > 0) {
        server_request_ms_ =
            m.sum / static_cast<double>(m.observations) * 1000.0;
      }
    }
  }
  if (traced && installed != nullptr) {
    for (const auto& m : installed->registry.snapshot()) {
      const auto count = static_cast<double>(m.counter_value);
      if (m.name == "p2sim_driver_jobs_completed_total") {
        out.jobs_completed = count;
      } else if (m.name == "p2sim_driver_jobs_requeued_total") {
        out.jobs_requeued = count;
      } else if (m.name == "p2sim_ckpt_writes_total") {
        out.ckpt_writes = count;
      }
    }
    // The metrics endpoint's body, rendered directly (no HTTP).
    const telemetry::MonitorService direct(*installed);
    std::vector<double> text_ms;
    for (int i = 0; i < 20; ++i) {
      const Clock::time_point a = Clock::now();
      const std::string body = direct.metrics_text();
      text_ms.push_back(seconds_between(a, Clock::now()) * 1000.0);
      ledger_.check(body.find("# TYPE p2sim_") != std::string::npos,
                    "metrics_text rendered no p2sim_ family");
    }
    out.metrics_text_ms = median(text_ms);
  }

  out.fingerprint = fingerprint(paper, cfg.archive());
  return out;
}

void Bench::check_fingerprint(const CampaignRun& r, const char* what,
                              Variant v) {
  const bool faulted = v == Variant::kFaulted;
  const std::string& ref =
      reference_fp_.try_emplace(faulted, r.fingerprint).first->second;
  ledger_.check(r.fingerprint == ref,
                std::string(what) + " fingerprint " + r.fingerprint +
                    " differs from the run's first campaign " + ref);
  const std::string& recorded =
      faulted ? o_.expect_faulted_fingerprint : o_.expect_fingerprint;
  if (!recorded.empty()) {
    ledger_.check(r.fingerprint == recorded,
                  std::string(what) + " fingerprint " + r.fingerprint +
                      " differs from the recorded " + recorded);
  }
}

/// Resumes the checkpointed campaign from its newest generation and checks
/// the result against the uninterrupted run.
double Bench::resume_once() {
  core::Sp2Config cfg = config(threads_, Variant::kFaulted);
  workload::ResumeReport report;
  cfg.checkpoint().resume = true;
  cfg.checkpoint().report = &report;
  core::Sp2Simulation sim(cfg);
  const Clock::time_point t0 = Clock::now();
  sim.campaign();
  const PaperOutputs paper = paper_outputs(sim);
  const double wall = seconds_between(t0, Clock::now());
  ledger_.check(report.resumed, "resume found no checkpoint generation");
  const std::string fp = fingerprint(paper, cfg.archive());
  const std::string& ref = reference_fp_[true];
  ledger_.check(fp == ref, "resumed campaign fingerprint " + fp +
                               " differs from the uninterrupted " + ref);
  return wall;
}

void Bench::build_oracle(const workload::CampaignResult& result) {
  const archive::MemoryJobSource jobs(result.jobs.all());
  const archive::MemoryIntervalSource intervals(result.intervals);
  archive::ScanStats ignored;
  auto& oracle = oracle_.emplace();
  for (std::size_t q = 0; q < kQueries.size(); ++q) {
    oracle[q] = run_query(q, jobs, intervals, &ignored);
  }
}

/// `count` canonical queries, round robin, each including the archive
/// open, each checked against the in-memory oracle.
void Bench::run_queries(std::size_t count) {
  const std::string path = config(threads_).archive();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t q = i % kQueries.size();
    archive::ScanStats stats;
    std::string got;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope span(tracing_, "archive.query");
      std::optional<archive::ArchiveReader> reader;
      {
        SpanLog::Scope open(tracing_, "archive.open");
        reader.emplace(archive::ArchiveReader::open(path));
      }
      SpanLog::Scope kernel(tracing_,
                            std::string("archive.query.") + kQueries[q]);
      const archive::ArchiveTableSource jobs(*reader,
                                             archive::TableKind::kJobs);
      const archive::ArchiveTableSource intervals(
          *reader, archive::TableKind::kIntervals);
      got = run_query(q, jobs, intervals, &stats);
    }
    const double ms = seconds_between(t0, Clock::now()) * 1000.0;
    query_ms_.push_back(ms);
    if (i < kQueries.size()) query_scan_.merge(stats);
    ledger_.check(got == (*oracle_)[q],
                  std::string("query ") + kQueries[q] +
                      " differs from its oracle");
  }
}

/// Per-layer probes that call one layer directly, plus what the traced
/// warm campaign recorded.
void Bench::layer_probes(const CampaignRun& traced) {
  const core::Sp2Config cfg = config(threads_);
  add("pbs.jobs_completed", traced.jobs_completed, "count");
  add("telemetry.metrics_text_ms", traced.metrics_text_ms, "ms");

  // power2: a fixed sample of this seed's campaign kernels, measured quietly.
  std::vector<power2::KernelDesc> sample;
  {
    workload::ProfileRegistry registry;
    workload::JobGenConfig gc = cfg.driver.jobgen;
    gc.seed ^= cfg.driver.seed;
    workload::JobGenerator gen(gc, registry);
    for (int i = 0; i < 64 && registry.size() < 12; ++i) {
      (void)gen.next(0.0);
    }
    registry.for_each(
        [&sample](const workload::JobProfile& p) { sample.push_back(p.kernel); });
  }
  std::vector<double> sig_ms;
  double instructions = 0.0;
  double busy_s = 0.0;
  power2::EventSignature probe_sig;
  for (const power2::KernelDesc& k : sample) {
    SpanLog::Scope span(tracing_, "power2.measure_quiet");
    const Clock::time_point t0 = Clock::now();
    const power2::QuietMeasurement m = power2::measure_quiet(cfg.driver.core, k);
    const double s = seconds_between(t0, Clock::now());
    sig_ms.push_back(s * 1000.0);
    instructions += static_cast<double>(m.run.counts.instructions());
    busy_s += s;
    probe_sig = m.sig;
  }
  add("power2.sig_ms", median(sig_ms), "ms");
  add("power2.sim_minstr_per_s", busy_s > 0 ? instructions / busy_s / 1e6 : 0,
      "Minstr/s");
  add("power2.store_load_ms", median(spans_.durations_ms("power2.store_load")),
      "ms");

  // workload: the driver's own per-phase sink from the traced campaign.
  const workload::PhaseTimings& pt = *traced.timings;
  const double total_us = static_cast<double>(pt.total_us());
  for (std::size_t i = 0; i < pt.wall_us.size(); ++i) {
    add(std::string("workload.phase.") +
            workload::WorkloadDriver::kPhases[i].name + "_s",
        static_cast<double>(pt.wall_us[i]) / 1e6, "s");
  }
  const auto phase_us = [&pt](workload::WorkloadDriver::Phase p) {
    return static_cast<double>(pt.wall_us[static_cast<std::size_t>(p)]);
  };
  using Phase = workload::WorkloadDriver::Phase;
  add("workload.measure_share",
      total_us > 0 ? phase_us(Phase::kMeasure) / total_us : 0, "ratio");
  add("workload.serial_share",
      total_us > 0 ? static_cast<double>(pt.serial_us()) / total_us : 0,
      "ratio");
  add("workload.horizons", static_cast<double>(pt.horizons), "count");
  add("workload.mean_horizon_intervals",
      pt.horizons > 0 ? static_cast<double>(pt.intervals) /
                            static_cast<double>(pt.horizons)
                      : 0,
      "intervals");
  add("workload.node_intervals_per_s",
      phase_us(Phase::kLanePipeline) > 0
          ? static_cast<double>(pt.intervals) * cfg.driver.num_nodes /
                (phase_us(Phase::kLanePipeline) / 1e6)
          : 0,
      "1/s");
  add("analysis.tables_ms", traced.tables_ms, "ms");

  // util: one pool round trip over 144 trivial shards.
  {
    util::TaskPool pool(threads_);
    std::vector<double> sink(static_cast<std::size_t>(cfg.driver.num_nodes));
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      const Clock::time_point t0 = Clock::now();
      pool.run(sink.size(), [&sink](std::size_t b, std::size_t e) {
        for (std::size_t j = b; j < e; ++j) sink[j] += 1.0;
      });
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    add("util.pool_dispatch_us", median(us), "us");
  }

  // cluster: one node advanced through a 15-minute slice of a sampled job.
  {
    cluster::Node node(0, cfg.driver.node);
    cluster::ActivityProfile profile;
    profile.compute_fraction = 0.8;
    profile.comm_send_bytes_per_s = 1e6;
    profile.comm_recv_bytes_per_s = 1e6;
    constexpr int kBatch = 100;
    std::vector<double> ns;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (int j = 0; j < kBatch; ++j) node.advance(900.0, &probe_sig, profile);
      ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kBatch);
    }
    add("cluster.advance_ns", median(ns), "ns");
  }

  // archive: what the run's archive costs to open, scan and query.
  const std::string path = cfg.archive();
  add("archive.bytes", static_cast<double>(fs::file_size(path)), "bytes");
  add("archive.open_ms", median(spans_.durations_ms("archive.open")), "ms");
  {
    const archive::ArchiveReader reader = archive::ArchiveReader::open(path);
    const archive::ArchiveTableSource src(reader,
                                          archive::TableKind::kIntervals);
    std::uint64_t rows = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      archive::ColumnAggregate agg;
      archive::aggregate_column(src, "user.cycles", &agg);
      rows += agg.rows;
    } while (seconds_between(t0, Clock::now()) < 0.2);
    add("archive.scan_mrecs_per_s",
        static_cast<double>(rows) / seconds_between(t0, Clock::now()) / 1e6,
        "Mrec/s");
  }
  const double rows_seen =
      static_cast<double>(query_scan_.rows_scanned + query_scan_.rows_pruned);
  add("archive.prune_ratio",
      rows_seen > 0 ? static_cast<double>(query_scan_.rows_pruned) / rows_seen
                    : 0,
      "ratio");
  for (std::size_t q = 0; q < kQueries.size(); ++q) {
    add(std::string("archive.query.") + kQueries[q] + "_ms",
        median(spans_.durations_ms(std::string("archive.query.") +
                                   kQueries[q])),
        "ms");
  }
}

/// The cold and faulted campaigns, traced once each: Level A measuring
/// every kernel, and the fault, requeue and durable checkpoint paths with a
/// resume from the newest generation.  `warm` is the traced warm campaign.
void Bench::variant_probes(const CampaignRun& warm) {
  const CampaignRun cold = campaign(threads_, /*traced=*/true, Variant::kCold);
  check_fingerprint(cold, "cold campaign", Variant::kCold);
  using Phase = workload::WorkloadDriver::Phase;
  const auto& pt = *cold.timings;
  const double measure_s =
      static_cast<double>(pt.wall_us[static_cast<std::size_t>(Phase::kMeasure)]) /
      1e6;
  add("power2.kernels_measured", cold.kernels_measured, "count");
  // The same campaign measures each kernel once when cold, so this is the
  // share of its kernels the warm run found in the store.
  add("power2.store_hit_ratio",
      cold.kernels_measured > 0
          ? 1.0 - warm.kernels_measured / cold.kernels_measured
          : 0,
      "ratio");
  add("power2.cold_campaign_s", cold.wall_s, "s");
  add("power2.cold_measure_s", measure_s, "s");
  add("power2.cold_measure_share",
      pt.total_us() > 0 ? measure_s * 1e6 / static_cast<double>(pt.total_us())
                        : 0,
      "ratio");

  const CampaignRun faulted =
      campaign(threads_, /*traced=*/true, Variant::kFaulted);
  check_fingerprint(faulted, "faulted campaign", Variant::kFaulted);
  add("ckpt.campaign_s", faulted.wall_s, "s");
  add("ckpt.generations", faulted.ckpt_writes, "count");
  add("pbs.jobs_requeued", faulted.jobs_requeued, "count");
  add("fault.injected",
      static_cast<double>(faulted.sim->campaign().faults.total_faults()),
      "count");
  {
    SpanLog::Scope span(tracing_, "ckpt.resume");
    add("ckpt.resume_s", resume_once(), "s");
  }

  // The newest generation, loaded and re-written durably.
  const core::Sp2Config cfg = config(threads_, Variant::kFaulted);
  const std::uint64_t hash = workload::config_fingerprint(cfg.driver);
  std::vector<double> loads;
  std::vector<double> writes;
  std::optional<workload::CheckpointImage> image;
  for (int i = 0; i < 5; ++i) {
    SpanLog::Scope span(tracing_, "ckpt.load");
    const Clock::time_point t0 = Clock::now();
    image = workload::load_latest_checkpoint(cfg.checkpoint().dir, hash,
                                             nullptr);
    loads.push_back(seconds_between(t0, Clock::now()) * 1000.0);
  }
  ledger_.check(image.has_value(), "no checkpoint generation loads");
  double bytes = 0.0;
  if (image) {
    const std::string dir = o_.rundir + "/ckpt-rewrite";
    for (int i = 0; i < 5; ++i) {
      SpanLog::Scope span(tracing_, "ckpt.write");
      std::string error;
      const Clock::time_point t0 = Clock::now();
      const bool ok = workload::write_checkpoint(
          dir, hash, image->resume_interval, image->payload,
          cfg.checkpoint().keep, &error);
      writes.push_back(seconds_between(t0, Clock::now()) * 1000.0);
      ledger_.check(ok, "checkpoint write failed: " + error);
    }
    const auto files = workload::list_checkpoints(dir);
    if (!files.empty()) {
      bytes = static_cast<double>(fs::file_size(dir + "/" + files.back()));
    }
  }
  add("ckpt.bytes", bytes, "bytes");
  add("ckpt.write_ms", median(writes), "ms");
  add("ckpt.load_ms", median(loads), "ms");
}

void Bench::emit(const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ledger_.failed == 0 ? "true" : "false",
              static_cast<long long>(ledger_.attempted),
              static_cast<long long>(ledger_.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                json_number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

constexpr int kMinReps = 3;
constexpr int kSetupsPerRep = 5;
constexpr std::size_t kQueriesPerRep = 100;

int Bench::run() {
  std::printf("perfbench: workload %s, seed %llu, 144 nodes x %lld days, "
              "%d worker thread(s) on %d core(s), %s %s build, trace %d\n",
              w_.name, static_cast<unsigned long long>(o_.seed),
              static_cast<long long>(o_.days), threads_, host_cores(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, o_.trace ? 1 : 0);
  if (o_.trace) tracing_ = &spans_;

  // The timed loop, repeated until the run's time is up (at least kMinReps
  // times): set up, run the two measured campaign variants, then
  // query the archive they wrote.  Untraced runs pair the workload's thread
  // count with threads = 1; traced runs pair an untraced and a traced
  // campaign at the workload's thread count (their difference is the
  // tracing overhead).  The variants swap order every repetition so slow
  // drift in the host's speed lands on both alike.
  std::vector<double> setup_s;
  std::vector<double> campaign_s;
  std::vector<double> second_s;
  // The query tail is taken within each repetition and reported as the
  // median over repetitions: a burst of load from elsewhere on the host
  // then spoils a few repetitions' tails instead of the whole run's.
  const double qtail = tail_percentile(kQueriesPerRep);
  std::vector<double> query_tail_ms;
  std::optional<CampaignRun> last_traced;
  // Peak memory of one full repetition.  Later repetitions reuse what the
  // first one freed, but each new worker thread can add an allocator arena,
  // so the process peak at the end would grow with the repetition count.
  double peak_rss = 0.0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= kMinReps && seconds_between(start, Clock::now()) >= o_.seconds) {
      break;
    }
    for (int i = 0; i < kSetupsPerRep; ++i) setup_s.push_back(setup_once());
    std::optional<CampaignRun> main;
    std::optional<CampaignRun> second;
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == (rep % 2 == 0)) {
        main = campaign(threads_, /*traced=*/false);
        check_fingerprint(*main, "campaign");
        campaign_s.push_back(main->wall_s);
      } else {
        second = campaign(o_.trace ? threads_ : 1, o_.trace);
        check_fingerprint(*second,
                          o_.trace ? "traced campaign" : "serial campaign");
        second_s.push_back(second->wall_s);
      }
    }
    if (!oracle_) build_oracle(main->sim->campaign());
    run_queries(kQueriesPerRep);
    query_tail_ms.push_back(quantile(
        std::vector<double>(query_ms_.end() - kQueriesPerRep, query_ms_.end()),
        qtail / 100.0));
    if (rep == 0) peak_rss = peak_rss_mb();
    if (o_.trace) last_traced = std::move(second);
  }
  // Scrapes are checked on the client thread; fold them in here.
  ledger_.attempted += static_cast<std::int64_t>(scrapes_.latency_ms.size());
  ledger_.failed += scrapes_.errors;

  // Scrapes run only while campaigns do, so plan on half the run's time.
  const std::size_t planned_scrapes = static_cast<std::size_t>(
      kScrapesPerSecond * std::max(o_.seconds, 1.0) / 2.0);
  const double stail = tail_percentile(planned_scrapes);
  std::printf("  setup %.6f s | campaign %.4f s (n=%zu) | %s %.4f s | "
              "query p50 %.4f ms, p%g %.4f ms (n=%zu, median of %zu "
              "repetitions) | attempted %lld, "
              "failed %lld, fail_frac %.6f\n",
              median(setup_s), median(campaign_s), campaign_s.size(),
              o_.trace ? "traced" : "serial", median(second_s),
              median(query_ms_), qtail, median(query_tail_ms),
              query_ms_.size(), query_tail_ms.size(),
              static_cast<long long>(ledger_.attempted),
              static_cast<long long>(ledger_.failed),
              static_cast<double>(ledger_.failed) /
                  static_cast<double>(std::max<std::int64_t>(
                      1, ledger_.attempted)));
  std::printf("  campaign fingerprints:");
  for (const auto& [faulted, fp] : reference_fp_) {
    std::printf(" %s=%s", faulted ? "faulted" : "clean", fp.c_str());
  }
  std::printf("\n  campaign samples (s):");
  for (std::size_t i = 0; i < campaign_s.size(); ++i) {
    std::printf(" %.4f/%.4f", campaign_s[i], second_s[i]);
  }
  std::printf("\n");
  if (w_.scraped) {
    std::printf("  scrapes %zu at %.0f/s: p50 %.4f ms, p%g %.4f ms, "
                "generator lag p50 %.4f ms, errors %lld\n",
                scrapes_.latency_ms.size(), kScrapesPerSecond,
                median(scrapes_.latency_ms), stail,
                quantile(scrapes_.latency_ms, stail / 100.0),
                median(scrapes_.lag_ms),
                static_cast<long long>(scrapes_.errors));
  }

  if (!o_.trace) {
    emit({{"setup_s", median(setup_s), "s"},
          {"campaign_s", median(campaign_s), "s"},
          {"campaign_serial_s", median(second_s), "s"},
          {"query_p50_ms", median(query_ms_), "ms"},
          {"query_tail_ms", median(query_tail_ms), "ms"},
          {"peak_rss_mb", peak_rss, "MB"}});
    return ledger_.failed == 0 ? 0 : 1;
  }

  layer_probes(*last_traced);
  variant_probes(*last_traced);
  const double untraced = median(campaign_s);
  const double traced = median(second_s);
  add("telemetry.scrapes", static_cast<double>(scrapes_.latency_ms.size()),
      "count");
  add("telemetry.scrape_errors", static_cast<double>(scrapes_.errors),
      "count");
  add("telemetry.scrape_bytes",
      scrapes_.latency_ms.empty()
          ? 0
          : static_cast<double>(scrapes_.bytes) /
                static_cast<double>(scrapes_.latency_ms.size()),
      "bytes");
  add("telemetry.scrape_p50_ms", median(scrapes_.latency_ms), "ms");
  add("telemetry.scrape_tail_ms",
      quantile(scrapes_.latency_ms, stail / 100.0), "ms");
  add("telemetry.generator_lag_ms", median(scrapes_.lag_ms), "ms");
  add("telemetry.server_request_ms", server_request_ms_, "ms");
  add("trace.campaign_untraced_s", untraced, "s");
  add("trace.campaign_traced_s", traced, "s");
  add("trace.overhead_s", traced - untraced, "s");

  const auto value = [this](const std::string& name) {
    for (const Metric& m : layer_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  std::printf("  cold probe: campaign %.4f s, measure phase %.4f s (share "
              "%.3f), %.0f kernels measured | warm: measure share %.4f, "
              "store hit ratio %.3f\n",
              value("power2.cold_campaign_s"), value("power2.cold_measure_s"),
              value("power2.cold_measure_share"),
              value("power2.kernels_measured"),
              value("workload.measure_share"),
              value("power2.store_hit_ratio"));
  std::printf("  faulted probe: campaign %.4f s, checkpoint writes %.0f x "
              "%.3f ms = %.4f s, resume %.4f s | tracing overhead %+.4f s\n",
              value("ckpt.campaign_s"), value("ckpt.generations"),
              value("ckpt.write_ms"),
              value("ckpt.generations") * value("ckpt.write_ms") / 1000.0,
              value("ckpt.resume_s"), traced - untraced);
  spans_.write_chrome_trace(o_.rundir + "/../trace-" + w_.name + ".json");
  std::sort(layer_.begin(), layer_.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  emit(layer_);
  return ledger_.failed == 0 ? 0 : 1;
}

/// Runs the seed's campaign cold against `o.prepare_store`, which writes
/// every signature it measures there.
int prepare_store(const Options& o) {
  core::Sp2Config cfg =
      campaign_config(o, workload_threads(*o.workload), Variant::kCold);
  cfg.signature_store() = o.prepare_store;
  cfg.archive().clear();
  workload::run_campaign(cfg.driver);
  return fs::exists(o.prepare_store) ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "p2sim_perfbench: %s\nusage: p2sim_perfbench --workload "
               "<warm|scraped> --seed N --seconds S --trace 0|1 --rundir DIR "
               "--store FILE [--days D] [--expect-fingerprint HEX] "
               "[--expect-faulted-fingerprint HEX] | --prepare-store FILE "
               "--workload W --seed N [--days D]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) return usage("unknown workload");
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--days") {
        o.days = std::stoll(value);
      } else if (flag == "--store") {
        o.store = value;
      } else if (flag == "--rundir") {
        o.rundir = value;
      } else if (flag == "--expect-fingerprint") {
        o.expect_fingerprint = value;
      } else if (flag == "--expect-faulted-fingerprint") {
        o.expect_faulted_fingerprint = value;
      } else if (flag == "--prepare-store") {
        o.prepare_store = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload == nullptr) return usage("--workload is required");
  if (o.days <= 0) return usage("--days must be positive");
  try {
    if (!o.prepare_store.empty()) return prepare_store(o);
    if (o.rundir.empty()) return usage("--rundir is required");
    if (o.store.empty()) return usage("--store is required");
    Bench bench(o);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2sim_perfbench: %s\n", e.what());
    return 1;
  }
}
