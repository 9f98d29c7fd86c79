// The benchmark's workloads as the traced run sees them: the exact
// exp::Scenario of every output cell of the user-facing command that
// run.py times end to end. The traced run checks its own cell outputs
// against the same golden bytes as the end-to-end run, so a cell defined
// here that drifts from the command it mirrors fails the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace perfbench {

struct Workload {
    std::string name;
    /// One scenario per output cell, in the command's output order.
    std::vector<tibfit::exp::Scenario> cells;
    /// Replications per cell (the command's runs=).
    std::size_t runs = 1;
    /// The command's representative configuration, used by the per-layer
    /// replays (the run each bench instruments for its --json artifact).
    tibfit::exp::Scenario representative;
    /// Renders one cell's mean accuracy exactly as the command prints it.
    std::string (*format)(double mean) = nullptr;
};

/// fig4_location, fig2_binary or multihop_shadow at program seed `seed`;
/// throws std::invalid_argument for any other name.
Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t runs);

}  // namespace perfbench
