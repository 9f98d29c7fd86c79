// Shared sweep drivers for the benches: run an experiment across a
// parameter range, averaging over seeds, and collect paper-style series.
//
// A sweep is a list of cells (one exp::Scenario each) times `runs`
// replications. Every (cell, trial) pair of the list is one task on one
// par::run_trials fan-out — the process-wide par::jobs() setting (bench/CLI
// flag --jobs, env TIBFIT_JOBS) picks the width — so the list pays for its
// trials and not for a barrier per cell. Trial r of cell k always draws
// the seed util::derive_trial_seed(cells[k].seed, r) and results reduce
// in (cell, trial) order, so every mean and series is bit-identical at any
// thread count and to running each cell as a list of its own; a cell's
// attached recorder receives its per-trial registries and traces merged in
// trial order (docs/PARALLELISM.md). Each cell dispatches on its Scenario
// kind.
//
// Errors: every trial of the list is attempted, then the exception of the
// lowest (cell, trial) index is rethrown and nothing is merged into any
// recorder. Cells after a throwing cell therefore still run.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"

namespace tibfit::exp {

/// Mean accuracy of `runs` replications of each cell (binary or location
/// by kind), differing only in seed; one entry per cell, 0 when runs = 0.
std::vector<double> mean_accuracies(std::span<const Scenario> cells, std::size_t runs);

/// Mean per-epoch accuracy series over `runs` seeds of each cell (location
/// kind); one series per cell, empty when runs = 0. A cell's series are
/// truncated to its shortest run, which only differs if an experiment
/// aborts — when that happens a warning is logged and, with a recorder
/// attached to that cell, its exp.sweep.truncated_runs counter records how
/// many runs fell short.
std::vector<std::vector<double>> mean_epoch_accuracies(std::span<const Scenario> cells,
                                                       std::size_t runs);

/// mean_accuracies() of the one cell `scenario`.
double mean_accuracy(Scenario scenario, std::size_t runs);

namespace detail {

/// mean_epoch_accuracies() with the per-trial series supplied by `series`
/// instead of run_location_experiment(). Real runs never differ in epoch
/// count, so this is how tests reach the truncation and exception paths.
std::vector<std::vector<double>> mean_epoch_accuracies(
    std::span<const Scenario> cells, std::size_t runs,
    const std::function<std::vector<double>(const Scenario&)>& series);

}  // namespace detail

}  // namespace tibfit::exp
