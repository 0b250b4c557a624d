// Batch job descriptions for the Portable Batch System model.
//
// PBS gave users dedicated nodes and enforced allocation policy directly
// (section 2).  A JobSpec is what the scheduler sees at submission; the
// fields that drive the *performance* of the job (which kernel it runs,
// its communication pattern, its memory demand) are carried opaquely in
// `profile_id` and `memory_mb_per_node` — the scheduler allocates nodes,
// it does not interpret the science.
#pragma once

#include <cstdint>

#include "src/util/ckpt.hpp"

namespace p2sim::pbs {

enum class JobKind : std::uint8_t {
  kBatch = 0,
  kInteractive = 1,  ///< PBS also provided interactive logins for debugging
};

struct JobSpec {
  std::int64_t job_id = 0;
  std::int32_t user_id = 0;
  int nodes_requested = 1;
  double submit_time_s = 0.0;
  /// Actual runtime once started (the simulator knows it; a real scheduler
  /// would only know the user's request).
  double runtime_s = 0.0;
  /// Requested wall time (PBS limit; >= runtime_s for well-behaved jobs).
  double walltime_request_s = 0.0;
  /// Per-node memory demand in MB (drives the paging model).
  double memory_mb_per_node = 64.0;
  /// Opaque handle to the workload profile (kernel + comm pattern).
  std::int64_t profile_id = 0;
  JobKind kind = JobKind::kBatch;

  bool operator==(const JobSpec&) const = default;

  /// Checkpoint support.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_i64(job_id);
    w.put_i32(user_id);
    w.put_i32(nodes_requested);
    w.put_f64(submit_time_s);
    w.put_f64(runtime_s);
    w.put_f64(walltime_request_s);
    w.put_f64(memory_mb_per_node);
    w.put_i64(profile_id);
    w.put_u8(static_cast<std::uint8_t>(kind));
  }
  void restore_ckpt(util::CkptReader& r) {
    job_id = r.read_i64("job.id");
    user_id = r.read_i32("job.user_id");
    nodes_requested = r.read_i32("job.nodes_requested");
    submit_time_s = r.read_f64("job.submit_time");
    runtime_s = r.read_f64("job.runtime");
    walltime_request_s = r.read_f64("job.walltime_request");
    memory_mb_per_node = r.read_f64("job.memory_mb_per_node");
    profile_id = r.read_i64("job.profile_id");
    kind = static_cast<JobKind>(r.read_u8("job.kind"));
  }
};

}  // namespace p2sim::pbs
