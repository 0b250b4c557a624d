// Crash-consistent campaign checkpoints: the durable container format.
//
// A checkpoint file carries the campaign state at an interval boundary
// that the config alone cannot rebuild (setup rederives the arrival trace
// and the signature table), so a killed campaign resumes bit-identically
// to the uninterrupted run (tests/workload/crash_recovery_test.cpp holds the
// fingerprint oracle).  This module owns the *container*: a fixed 48-byte
// header (magic, config fingerprint, resume interval, payload size, two
// FNV-1a/64 checksums) followed by the opaque payload the driver's
// serializers produce.  Torn-write safety comes from the write protocol —
// write to `<name>.tmp`, fsync, atomically rename, fsync the directory —
// plus generations: the newest `keep` checkpoints survive pruning, and a
// corrupt newest generation falls back to the previous one with the
// rejection reason reported, never silently.
//
// The config fingerprint hashes every determinism-relevant DriverConfig
// field (and none of the wall-clock-only knobs: threads, observer, the
// signature store path, the checkpoint config itself), so a checkpoint can
// never be resumed against a campaign it does not describe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/ckpt.hpp"

namespace p2sim::workload {

struct DriverConfig;

/// How a resume attempt went (wire `CheckpointConfig::report` to receive
/// it).  `rejected` lists every generation that failed validation, newest
/// first, each with the precise reason — a corrupt newest checkpoint must
/// leave an audit trail, not vanish.
struct ResumeReport {
  bool attempted = false;
  bool resumed = false;
  std::int64_t resume_interval = -1;
  std::string loaded_path;
  std::vector<std::string> rejected;
};

/// Campaign checkpointing knobs, carried inside DriverConfig.  All of it
/// is excluded from the config fingerprint: checkpoint cadence shapes
/// durability, never results.
struct CheckpointConfig {
  /// Directory for checkpoint generations; empty disables checkpointing.
  std::string dir{};
  /// Simulated-time cadence: write after every N-th interval.
  std::int64_t every_intervals = 96;
  /// Generations to retain (older ones are pruned after a commit).
  int keep = 2;
  /// Resume from the newest valid checkpoint in `dir` before running.
  bool resume = false;
  /// Optional resume audit sink (not owned; may be nullptr).
  ResumeReport* report = nullptr;
};

/// Test seam for the kill-injection harness: when installed, the driver
/// and the checkpoint writer announce progress points ("interval-end",
/// "ckpt-mid-write", "ckpt-pre-rename", "ckpt-committed") and the harness
/// raises SIGKILL at a scheduled one.  A plain function pointer on the
/// serial path — never consulted from worker threads.
using CheckpointTestHook = void (*)(const char* point, std::int64_t value);
void set_checkpoint_test_hook(CheckpointTestHook hook);
/// Invokes the installed hook (no-op when none is).
void checkpoint_test_tick(const char* point, std::int64_t value);

/// FNV-1a/64 over every determinism-relevant DriverConfig field.  Two
/// configs with equal fingerprints produce bit-identical campaigns; the
/// loader refuses checkpoints whose fingerprint differs.
std::uint64_t config_fingerprint(const DriverConfig& cfg);

/// A validated, decoded checkpoint.
struct CheckpointImage {
  std::uint64_t config_hash = 0;
  /// First interval the resumed loop must execute (state covers [0, this)).
  std::int64_t resume_interval = 0;
  std::string payload;
};

/// Serializes header + payload into the on-disk byte stream.
std::string encode_checkpoint_file(std::uint64_t config_hash,
                                   std::int64_t resume_interval,
                                   std::string_view payload);

/// Validates and decodes a checkpoint byte stream.  Throws util::CkptError
/// naming the offending field and offset on any malformation: bad magic,
/// truncation anywhere, a header or payload checksum mismatch.
CheckpointImage decode_checkpoint_file(std::string_view bytes);

/// Generation file name for a checkpoint taken after `resume_interval`
/// intervals: zero-padded so lexicographic order is interval order.
std::string checkpoint_file_name(std::int64_t resume_interval);

/// Checkpoint generations present in `dir`, ascending by interval
/// (in-flight `*.tmp` files are ignored).  Missing directory = empty.
std::vector<std::string> list_checkpoints(const std::string& dir);

/// Durably writes one checkpoint generation (temp + fsync + rename +
/// directory fsync) and prunes generations beyond `keep`.  Announces
/// "ckpt-mid-write" / "ckpt-pre-rename" / "ckpt-committed" to the test
/// hook.  Returns false with `*error` set on failure; a failed write
/// leaves existing generations untouched.
bool write_checkpoint(const std::string& dir, std::uint64_t config_hash,
                      std::int64_t resume_interval, std::string_view payload,
                      int keep, std::string* error);

/// Loads the newest valid checkpoint whose fingerprint matches
/// `config_hash`, walking generations newest-first and recording every
/// rejection (with its reason) in `report`.  Returns nullopt when no
/// generation validates — the caller then runs from the beginning.
std::optional<CheckpointImage> load_latest_checkpoint(
    const std::string& dir, std::uint64_t config_hash, ResumeReport* report);

}  // namespace p2sim::workload
