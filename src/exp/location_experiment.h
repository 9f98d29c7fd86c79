// Experiments 2 and 3 (Sections 4.2-4.3): location determination on a
// 100-node field with rotating cluster heads, and the network-decay variant
// where the compromised fraction grows over time.
//
// 100 nodes on a 100x100 field (regular 10x10 lattice, matching the
// paper's "placed uniformly on a 100X100 grid"), 5 rotating CH entities,
// one base station archiving trust across leaderships. Faulty nodes are
// level 0, 1 or 2; correct nodes report with sigma 1.6/2.0, faulty with
// sigma 4.25/6.0 and drop 25% of reports (Table 2). Accuracy is the
// fraction of generated events for which the active CH declared an event
// within r_error of the true location.
//
// With location.clustering = leach the dedicated CHs give way to the
// Section-2 system model: every node hosts a CH role, LEACH rounds elect
// the heads (cluster::LeachRounds), and the final trust is the base-station
// archive.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster_head.h"
#include "cluster/leach.h"
#include "exp/scenario.h"
#include "sensor/event_generator.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::exp {

/// Flat parameter set of one location run (Table 2 defaults). Superseded
/// by exp::Scenario; kept only because the benchmark package (perfbench/)
/// still builds one workload through it. to_scenario() maps every field.
struct LocationConfig {
    std::size_t n_nodes = 100;
    double field = 100.0;
    bool grid_layout = true;        ///< lattice (paper) vs. uniform random
    double sensing_radius = 20.0;   ///< r_s
    double r_error = 5.0;
    double t_out = 1.0;

    double pct_faulty = 0.1;
    sensor::NodeClass fault_level = sensor::NodeClass::Level0;
    double correct_sigma = 1.6;
    double faulty_sigma = 4.25;
    double faulty_drop_rate = 0.25;
    double false_alarm_rate = 0.0;
    double lower_ti = 0.5;   ///< smart-node hysteresis (levels 1-2)
    double upper_ti = 0.8;
    double collusion_jitter = 0.0;  ///< adaptive level-2 echo perturbation

    core::DecisionPolicy policy = core::DecisionPolicy::TrustIndex;
    double lambda = 0.25;
    double fault_rate = 0.1;  ///< f_r (Table 2: differs from NER)
    double removal_ti = 0.05;
    /// Extension (Section 7 future work): statistical detection of
    /// level-2 collusion from improbably identical reports.
    bool collusion_defense = false;
    /// Extension: trust-weighted event-location estimation.
    bool trust_weighted_location = false;

    /// Extension (Section 3.4): multi-hop report collection. Sensor radios
    /// shrink to `radio_range` (default single-hop: the whole field) and
    /// reports travel to the CH over the reliable relay transport through
    /// other sensors. CHs and the base station keep long-range radios
    /// (they are infrastructure), so decisions and trust transfers stay
    /// single-hop.
    bool multihop = false;
    double radio_range = 30.0;  ///< sensor radio range when multihop

    /// Extension (Section 2): mobile network. Nodes follow a random-
    /// waypoint walk; the CHs' position estimates refresh on every
    /// mobility tick (and the relay routes, when multihop is also on).
    bool mobile = false;
    double speed_min = 0.5;  ///< units/second
    double speed_max = 1.5;
    double mobility_tick = 1.0;

    std::size_t n_ch = 5;
    std::size_t rotation_period = 20;  ///< events per leadership
    std::size_t events = 200;
    double event_interval = 10.0;
    std::size_t burst = 1;  ///< concurrent events per instant (Fig. 7: 2)
    double channel_drop = 0.01;
    /// MAC contention: receiver airtime per packet (0 = no collisions).
    /// Reports of one event arrive at the CH microseconds apart; non-zero
    /// airtime makes them contend like a real shared medium.
    double channel_airtime = 0.0;
    /// Random-access transmit jitter per report (CSMA stand-in); needed
    /// whenever channel_airtime is on, or same-window reports collide.
    double tx_jitter = 0.0;
    std::uint64_t seed = 1;

    // Experiment 3 (decay): when enabled, pct_faulty is ignored; the run
    // starts at decay_initial and gains decay_step more compromised nodes
    // every decay_epoch_events events until decay_final.
    bool decay = false;
    double decay_initial = 0.05;
    double decay_step = 0.05;
    double decay_final = 0.75;
    std::size_t decay_epoch_events = 50;

    /// Epoch width (in events) for the accuracy-vs-time series.
    std::size_t epoch_events = 50;

    /// Optional observability attachment (non-owning; may be nullptr).
    /// The run wires it through channel, every CH, trust tables, relay
    /// transports and simulator telemetry; instrumentation never touches
    /// the RNG, so results are bit-identical with or without it.
    obs::Recorder* recorder = nullptr;
};

/// Scored outcome of one location run (accuracy = events located within
/// r_error / events; see RunResult for the shared fields).
struct LocationResult : RunResult {
    std::size_t false_positives = 0;  ///< declared events matching no ground truth
    std::size_t isolated = 0;         ///< nodes diagnosed by the final trust table
    std::vector<double> epoch_accuracy;  ///< accuracy per epoch_events window
    std::vector<cluster::RoundRecord> rounds;  ///< LEACH elections (empty when static)
};

/// How a decision log scores against ground truth. A decision matches an
/// event when it carries a location within r_error of the event's and was
/// made 0 to match_window seconds after it. An event is detected when a
/// matching decision declared it; a declared decision that matches no
/// event is a false positive.
struct LocationScore {
    std::vector<bool> event_detected;  ///< one per event, in history order
    std::size_t detected = 0;
    std::size_t false_positives = 0;
};

/// Scores `decisions` against `events`. The decisions must be in
/// non-decreasing time order, as a run logs them (a TIBFIT_CHECK asserts
/// it): each event then visits only the decisions inside its match
/// window, found by binary search.
LocationScore score_location(std::span<const sensor::GeneratedEvent> events,
                             std::span<const cluster::DecisionRecord> decisions,
                             double match_window, double r_error);

/// Runs one complete location simulation, including any fault-injection
/// campaign the scenario carries (channel degradation windows, compromise
/// onsets, behaviour shifts; CH failover is binary-kind only — location
/// runs already rotate leadership). The scenario's `kind` is ignored —
/// this entry point always runs (and validates) the location workload.
/// Throws std::invalid_argument listing every Scenario::validate()
/// message when the scenario is invalid.
LocationResult run_location_experiment(const Scenario& scenario);

/// The exact Scenario the flat config describes.
Scenario to_scenario(const LocationConfig& config);

}  // namespace tibfit::exp
