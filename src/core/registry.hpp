// The experiment registry: every reproduction this repository can run,
// addressable by name, and the one place each is rendered.
//
// Each paper artifact (a table, a figure, the campaign summary, the loss
// audit, the fault campaign, the paper-fidelity table) is registered as a
// named Experiment that renders its result from a caller-supplied
// Sp2Simulation.  Tools iterate experiments() to enumerate what exists;
// examples/run_experiment resolves names from the command line.
// Experiments share the caller's simulation, so running several reuses
// one campaign.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/simulation.hpp"

namespace p2sim::core {

struct Experiment {
  std::string name;         ///< command-line handle, e.g. "table2"
  std::string description;  ///< one line, shown by list output
  /// Renders the experiment's formatted result.  May run the campaign
  /// (lazily, via the simulation) or its reference-fault twin.
  std::function<std::string(Sp2Simulation&)> run;
  /// The series behind a figure as CSV (empty for non-figures).
  std::function<std::string(Sp2Simulation&)> csv;
};

/// All registered experiments, in presentation order.
const std::vector<Experiment>& experiments();

/// Finds an experiment by name; nullptr when unknown.
const Experiment* find_experiment(std::string_view name);

/// An experiment's output under its "--- name: description ---" heading.
std::string render(const Experiment& e, Sp2Simulation& sim);

}  // namespace p2sim::core
