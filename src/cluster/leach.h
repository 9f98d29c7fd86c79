// LEACH-style rotating cluster-head election (Section 2), with the paper's
// extra admission rule: a node's trust index must clear a threshold before
// it may serve as CH.
//
// Classic LEACH: in round r, a node that has not served within the current
// epoch (1/P rounds) volunteers with threshold
//     T(n) = P / (1 - P * (r mod 1/P))
// We weight T(n) by the node's residual-energy fraction (the paper: CH
// election "is based on energy-related parameters") and gate eligibility on
// TI >= ti_threshold (the paper's addition). If nobody volunteers, the
// most energetic eligible node is drafted so the cluster always has a head;
// if no node clears the TI bar, the base station's re-initiation is modeled
// by drafting the highest-TI node.
//
// LeachRounds runs that election round after round over a network whose
// sensing nodes each host a CH role (location.clustering = leach).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "cluster/energy.h"
#include "sensor/sensor_node.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tibfit::cluster {

/// Election tunables.
struct LeachParams {
    double ch_fraction = 0.1;   ///< desired fraction of nodes serving as CH (P)
    double ti_threshold = 0.5;  ///< minimum TI to be admitted as CH
};

/// A candidate's view presented to the election.
struct Candidate {
    sim::ProcessId id = sim::kNoProcess;
    double energy_fraction = 1.0;  ///< residual / initial energy, in [0,1]
    double ti = 1.0;               ///< trust index from the base station archive
};

/// Result of one election round.
struct ElectionResult {
    std::vector<sim::ProcessId> heads;
    /// True if the TI gate excluded every volunteer and a fallback draft
    /// was used (the base station had to re-initiate election).
    bool drafted = false;
};

/// Stateful election driver: remembers who served in the current epoch.
class LeachElection {
  public:
    LeachElection(LeachParams params, util::Rng rng);

    const LeachParams& params() const { return params_; }

    /// Rounds per epoch: ceil(1 / P).
    std::uint32_t epoch_length() const;

    /// The classic LEACH volunteering threshold for a node, already scaled
    /// by its energy fraction; 0 if the node served this epoch or fails the
    /// TI gate. Exposed for tests.
    double threshold(std::uint32_t round, const Candidate& c) const;

    /// Runs one election round over the candidates.
    ElectionResult run_round(std::uint32_t round, std::span<const Candidate> candidates);

  private:
    bool served_this_epoch(std::uint32_t round, sim::ProcessId id) const;

    LeachParams params_;
    util::Rng rng_;
    std::unordered_map<sim::ProcessId, std::uint32_t> last_served_round_;
};

/// One round of LeachRounds, recorded for inspection.
struct RoundRecord {
    std::vector<sim::ProcessId> heads;  ///< sensing-node ids elected
    bool drafted = false;               ///< see ElectionResult::drafted
    std::size_t alive = 0;              ///< nodes with battery left
    std::size_t compromised_heads = 0;  ///< heads whose sensor is not Correct
};

/// Self-organized clustering (Section 2) over a built network: sensing
/// node i hosts the inactive CH role hosts[i], one per node. Each round
/// bills the reports sent since the last round to the batteries, retires
/// the previous heads (their trust tables go to the base station), elects
/// new heads among the alive nodes by archive TI and residual energy,
/// activates them, and has every other alive node affiliate with the
/// strongest advertisement.
class LeachRounds {
  public:
    LeachRounds(sim::Simulator& sim, util::Rng rng, LeachParams params, double initial_energy,
                std::span<const std::unique_ptr<sensor::SensorNode>> nodes,
                std::span<const std::unique_ptr<ClusterHead>> hosts, const BaseStation& station);

    /// Runs the first round now, then one every `round_duration` while
    /// now + round_duration < until.
    void start(double round_duration, double until);

    const std::vector<RoundRecord>& rounds() const { return rounds_; }

  private:
    void run_round();
    void bill_energy();
    /// Index of the co-located host behind a sink id; nodes.size() if none.
    std::size_t host_index(sim::ProcessId sink) const;

    sim::Simulator* sim_;
    LeachElection election_;
    std::span<const std::unique_ptr<sensor::SensorNode>> nodes_;
    std::span<const std::unique_ptr<ClusterHead>> hosts_;
    const BaseStation* station_;
    std::vector<Battery> batteries_;
    std::vector<std::size_t> reports_billed_;  ///< per node, reports already charged
    std::vector<sim::ProcessId> active_heads_;
    std::vector<RoundRecord> rounds_;
    double round_duration_ = 0.0;
    double until_ = 0.0;
};

}  // namespace tibfit::cluster
