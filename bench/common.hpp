// Shared plumbing for the bench binaries.
//
// Each bench prints its reproduction or measurement, optionally next to
// the paper's reported values, dumps the underlying series as CSV, and
// then runs google-benchmark timings of the kernels behind it.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/simulation.hpp"

namespace p2sim::bench {

/// "paper X.X / measured Y.Y" comparison line.
inline void compare(const char* what, double paper, double measured,
                    const char* unit = "") {
  std::printf("  %-46s paper %10.3f   measured %10.3f %s\n", what, paper,
              measured, unit);
}

/// Opens a CSV file next to the binary's working directory.
inline std::ofstream open_csv(const std::string& name) {
  std::ofstream out(name);
  if (out) std::printf("  [series written to %s]\n", name.c_str());
  return out;
}

/// Prints the standard bench banner.
inline void banner(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n  (reproduces %s of Bergeron, SC'98)\n", experiment,
              paper_ref);
  std::printf("==============================================================\n");
}

/// Custom main body: print the reproduction, then run timings.
int run(int argc, char** argv, void (*report)());

}  // namespace p2sim::bench

#define P2SIM_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                       \
    return p2sim::bench::run(argc, argv, (report_fn));    \
  }
