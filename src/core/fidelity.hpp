// The paper-fidelity table: every number and statement of Bergeron's that
// this repository reproduces, each with the rule it is checked by:
//
//   band       measured within kBandTolerance of the paper value;
//   shape      a predicate for a qualitative statement ("no obvious
//              trend"), written against the simulation's own scale;
//   deviation  a known miss: the paper value is kept, today's paper-scale
//              value is pinned to kPinTolerance, and a reason is given.
//
// bench_paper evaluates every row at paper scale and fails when one does
// not hold; tests/core/paper_claims_test.cpp runs the shape rows on a
// scaled campaign.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"

namespace p2sim::core {

/// A band row passes when |measured - paper| <= kBandTolerance * |paper|.
inline constexpr double kBandTolerance = 0.25;
/// A deviation row passes when measured is within this fraction of its pin.
inline constexpr double kPinTolerance = 0.01;

enum class ClaimKind { kBand, kShape, kDeviation };

const char* to_string(ClaimKind kind);

struct Claim {
  std::string id;  ///< "<artifact>.<quantity>", e.g. "table2.mips"
  ClaimKind kind = ClaimKind::kBand;
  double paper = 0.0;  ///< the paper's value (a reference for shape rows)
  std::string wording = {};  ///< what the paper says
  /// Reads the quantity off the simulation; fault rows use sim.faulted().
  std::function<double(Sp2Simulation&)> measure = {};
  /// Shape rows: whether the statement holds for the measured value.
  std::function<bool(Sp2Simulation&, double)> holds = {};
  double pinned = 0.0;      ///< deviation rows: today's paper-scale value
  std::string reason = {};  ///< deviation rows: why the band is missed
  /// Shape rows: the statement is about the paper-scale campaign, and
  /// scaled-down campaigns are not expected to meet it.
  bool paper_scale_only = false;

  /// The registry experiment that renders the quantity (the id's prefix).
  std::string artifact() const { return id.substr(0, id.find('.')); }
};

/// Every claim, grouped by artifact in registry order.
const std::vector<Claim>& claims();

struct ClaimResult {
  const Claim* claim = nullptr;
  double measured = 0.0;
  double lo = 0.0;  ///< accepted range (band or pin); unused for shape
  double hi = 0.0;
  bool pass = false;
};

ClaimResult evaluate(const Claim& claim, Sp2Simulation& sim);
std::vector<ClaimResult> evaluate_claims(Sp2Simulation& sim);

/// Figure 5's mean daily Mflops/node over the days at or below (`low`) or
/// above the median system/user FXU ratio.
double fig5_intervention_mean(const analysis::Fig5Series& f, bool low);

/// The Markdown fidelity table (one row per claim, then the deviations
/// with their reasons) -- the `paper` experiment's output and the
/// generated block of EXPERIMENTS.md.
std::string format_claims(const std::vector<ClaimResult>& results);

}  // namespace p2sim::core
