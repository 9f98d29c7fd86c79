// Per-layer replays for the traced run. Each one drives a single layer
// through its public API with inputs shaped like the workload's trials and
// times the calls from outside the library; nothing inside src/ is
// instrumented. Every replay repeats its batch until `budget_s` seconds
// have passed (at least three batches) and reports the median batch.
#pragma once

#include <cstddef>

#include "exp/scenario.h"

namespace perfbench {

struct SimReplay {
    double ns_per_event = 0.0;
    double allocs_per_event = 0.0;
};

/// Simulator::schedule/run churn at a steady `queue_depth` pending events,
/// each a closure the size of a channel delivery (a net::Packet plus one
/// pointer), every executed event scheduling its successor.
SimReplay replay_sim(std::size_t queue_depth, double budget_s);

struct NetReplay {
    double us_per_broadcast = 0.0;
    double allocs_per_delivery = 0.0;
};

/// Channel::broadcast of a CH decision packet carrying `ids_per_decision`
/// judged node ids, plus the simulator drain that delivers it, over the
/// scenario's node / CH / base-station layout and channel parameters.
NetReplay replay_net(const tibfit::exp::Scenario& scenario, std::size_t ids_per_decision,
                     double budget_s);

struct CoreReplay {
    double us_per_decision = 0.0;
    double clusterer_us_per_call = 0.0;
    double ns_per_cti = 0.0;
    /// Decision replay time with a check::ShadowArbiter attached through
    /// DecisionEngine::set_checker, over the same replay without it.
    double check_overhead_ratio = 0.0;
};

/// Decision windows drawn through sensor::FaultBehavior::on_event for the
/// scenario's nodes and fault mix, replayed through a fresh
/// DecisionEngine::decide_binary / decide_location per batch; the same
/// windows' report locations through EventClusterer::cluster; and
/// TrustManager::cumulative_ti over the windows' event neighbours.
CoreReplay replay_core(const tibfit::exp::Scenario& scenario, std::uint64_t seed,
                       double budget_s);

}  // namespace perfbench
