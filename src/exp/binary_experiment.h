// Experiment 1 (Section 4.1): binary event model.
//
// A cluster of n sensing nodes plus one CH. Every node is an event
// neighbour of every event. Level-0 faulty nodes generate missed alarms at
// 50% and false alarms at a configurable rate; correct nodes miss at their
// NER. The CH adjudicates each report window with TIBFIT or the baseline
// majority vote. Accuracy is scored over all decision instances: real
// events (the CH must declare) and false-alarm windows (the CH must not).
#pragma once

#include <cstddef>

#include "exp/scenario.h"

namespace tibfit::exp {

/// Scored outcome of one binary run (accuracy = correct decisions / all
/// instances; see RunResult for the shared fields).
struct BinaryResult : RunResult {
    double detection_rate = 0.0;          ///< events declared / events
    std::size_t false_alarm_windows = 0;  ///< quiet windows that drew reports
    std::size_t phantoms_declared = 0;    ///< false-alarm windows wrongly declared
    std::size_t ch_overrides = 0;         ///< decisions where shadows outvoted the CH
};

/// Runs one complete binary simulation (network, channel, CH, generator),
/// including any fault-injection campaign the scenario carries. The
/// scenario's `kind` is ignored — this entry point always runs (and
/// validates) the binary workload. Throws std::invalid_argument listing
/// every Scenario::validate() message when the scenario is invalid.
BinaryResult run_binary_experiment(const Scenario& scenario);

}  // namespace tibfit::exp
