// exp::Scenario — the one aggregate describing a complete experiment.
//
// Scenario owns the layer structs themselves — core::EngineConfig (with
// TrustParams), net::ChannelParams/TransportParams,
// sensor::FaultParams/MobilityParams, inject::CampaignSpec — plus the
// field geometry and the two experiment-shaped workload blocks. One seed,
// one validate(), one field list behind JSON and key=value overrides. See
// docs/OBSERVABILITY.md (artifact schema) and docs/FAULT_INJECTION.md
// (campaign wiring).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "check/config.h"
#include "cluster/cluster_head.h"
#include "core/decision_engine.h"
#include "inject/campaign.h"
#include "net/channel.h"
#include "net/transport.h"
#include "sensor/fault_model.h"
#include "sensor/mobility.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::exp {

/// Experiment-1 workload shape (binary event model, Section 4.1).
struct BinaryWorkload {
    std::size_t n_nodes = 10;
    double pct_faulty = 0.4;
    /// Temporal spread of false alarms within a quiet window, in units of
    /// t_out. 0 = perfectly coordinated (all in one CH window); large =
    /// fully independent (each alarm adjudicated alone). The paper leaves
    /// this implicit; the Figure-3 crossover (75% alarms helping below 80%
    /// compromised, collapsing above) needs partial coincidence.
    double false_alarm_spread_touts = 2.0;
    std::size_t events = 100;
    double event_interval = 10.0;
    bool use_shadows = false;  ///< Section 3.4 shadow CHs + base station
    bool corrupt_ch = false;   ///< CH announces inverted decisions
    /// Route reports over the ack/retry relay transport even in the
    /// single-hop cluster, so injected channel loss degrades gracefully
    /// (retransmission) instead of silently deleting correct reports.
    bool reliable_reports = false;
};

/// How a location run forms its clusters: dedicated CH entities rotating
/// on a schedule (the paper's evaluation setup), or LEACH heads elected
/// from the sensors every round (its Section 2 system model).
enum class Clustering { Static, Leach };

/// LEACH rounds (location.clustering = leach).
struct LeachSettings {
    double ch_fraction = 0.1;      ///< P: desired fraction of heads per round
    double round_duration = 100.0;  ///< seconds of leadership per round
    double initial_energy = 1.0;    ///< joules per node battery
};

/// Experiment-2/3 workload shape (location model, Sections 4.2-4.3).
struct LocationWorkload {
    std::size_t n_nodes = 100;
    bool grid_layout = true;
    double pct_faulty = 0.1;
    sensor::NodeClass fault_level = sensor::NodeClass::Level0;
    bool multihop = false;
    double radio_range = 30.0;
    bool mobile = false;
    std::size_t n_ch = 5;
    std::size_t rotation_period = 20;
    std::size_t events = 200;
    double event_interval = 10.0;
    std::size_t burst = 1;
    double tx_jitter = 0.0;
    // Experiment 3 decay schedule (pct_faulty ignored when decay is on).
    bool decay = false;
    double decay_initial = 0.05;
    double decay_step = 0.05;
    double decay_final = 0.75;
    std::size_t decay_epoch_events = 50;
    std::size_t epoch_events = 50;  ///< accuracy-vs-time series granularity
    /// Leach: every node hosts a CH role; n_ch and rotation_period are
    /// unused, and multihop and mobile are rejected.
    Clustering clustering = Clustering::Static;
    LeachSettings leach;
};

/// Field geometry every runner reads.
struct DeploymentGeometry {
    double field = 100.0;          ///< side of the square field
    double sensing_radius = 20.0;  ///< r_s; overrides engine.sensing_radius
};

/// The complete description of one experiment run.
struct Scenario {
    enum class Kind { Binary, Location };

    Kind kind = Kind::Binary;
    std::uint64_t seed = 1;

    /// Protocol tunables: policy, t_out, r_error, trust (lambda / f_r /
    /// removal_ti), collusion defense, weighted location. For binary
    /// scenarios trust.fault_rate < 0 means "equal to the NER"
    /// (faults.natural_error_rate), matching Table 1.
    core::EngineConfig engine;
    net::ChannelParams channel;
    net::TransportParams transport;  ///< relay/ack tunables (reliable paths)
    DeploymentGeometry deployment;
    sensor::FaultParams faults;
    sensor::MobilityParams mobility;
    inject::CampaignSpec campaign;

    BinaryWorkload binary;
    LocationWorkload location;

    /// Self-checking: off (production, zero overhead), shadow (lockstep
    /// differential oracle + invariant counting; the run completes and
    /// reports divergence counts), assert (first divergence or invariant
    /// violation throws). Serialized.
    check::Settings check;

    /// Optional observability attachment (non-owning; may be nullptr).
    /// Instrumentation never touches the RNG, so results are bit-identical
    /// with or without it. Not serialized.
    obs::Recorder* recorder = nullptr;
    /// Copies the merged CH decision log into RunResult::decisions. Not
    /// serialized.
    bool keep_decisions = false;

    /// Paper-faithful starting points (Table 1 / Table 2 defaults).
    static Scenario binary_defaults();
    static Scenario location_defaults();

    // Fluent builder: each setter returns *this so scenarios compose in
    // one expression. Only the knobs benches actually sweep get setters;
    // anything else is reachable through the public members.
    Scenario& with_seed(std::uint64_t s) { seed = s; return *this; }
    Scenario& with_policy(core::DecisionPolicy p) { engine.policy = p; return *this; }
    Scenario& with_lambda(double lambda) { engine.trust.lambda = lambda; return *this; }
    Scenario& with_fault_rate(double fr) { engine.trust.fault_rate = fr; return *this; }
    Scenario& with_removal_ti(double ti) { engine.trust.removal_ti = ti; return *this; }
    Scenario& with_t_out(double t) { engine.t_out = t; return *this; }
    Scenario& with_channel_drop(double p) { channel.drop_probability = p; return *this; }
    Scenario& with_pct_faulty(double pct) {
        binary.pct_faulty = pct;
        location.pct_faulty = pct;
        return *this;
    }
    Scenario& with_events(std::size_t n) {
        binary.events = n;
        location.events = n;
        return *this;
    }
    Scenario& with_campaign(inject::CampaignSpec spec) {
        campaign = std::move(spec);
        return *this;
    }
    Scenario& with_recorder(obs::Recorder* rec) { recorder = rec; return *this; }
    Scenario& with_check_mode(check::Mode m) { check.mode = m; return *this; }

    /// The trust parameters a run actually uses: resolves the binary-kind
    /// "fault_rate tracks NER" sentinel.
    core::TrustParams effective_trust() const;

    /// Structural consistency check; one message per defect, empty ==
    /// valid. Includes campaign.validate().
    std::vector<std::string> validate() const;
};

/// What every run reports, whichever workload it ran.
struct RunResult {
    double accuracy = 0.0;
    std::size_t events = 0;
    std::size_t detected = 0;
    double mean_ti_correct = 1.0;  ///< final mean TI of correct nodes
    double mean_ti_faulty = 1.0;   ///< final mean TI of faulty nodes
    /// Differential-oracle tallies (zero unless check.mode != off): how
    /// many decisions the shadow arbiters cross-checked, and how many
    /// diverged from the paper-literal reference.
    std::size_t checked_decisions = 0;
    std::size_t oracle_divergences = 0;
    /// The CH decision log, merged over every head (only filled with
    /// Scenario::keep_decisions).
    std::vector<cluster::DecisionRecord> decisions;
};

/// Serializes everything except the runtime attachments (recorder,
/// keep_decisions) as one JSON object, indented by two spaces.
std::string to_json(const Scenario& scenario);

/// Rebuilds a scenario from the to_json() shape by obs/fields.h's reading
/// rules: missing and unknown keys keep the kind's defaults. Throws
/// std::runtime_error on malformed JSON, a non-object root, or a value
/// the field's type does not hold (naming its key).
Scenario scenario_from_json_text(const std::string& text);

/// Sets one serialized field, other than `kind` and `campaign`, from text
/// parsed strictly in the field's type; returns its path. `key` is the
/// dotted JSON path or the leaf name, which is unique among the sections
/// the scenario's kind reads (binary skips location.*, location skips
/// binary.*). Throws std::invalid_argument naming the key and the type.
std::string_view apply_override(Scenario& scenario, std::string_view key, std::string_view value);

/// One `path=value` token per field of the sections the scenario's kind
/// reads, in JSON order, each setting its field to its current value.
std::vector<std::string> override_tokens(const Scenario& scenario);

/// One `key=value` knob of an example program: a leaf of a Scenario (set
/// through apply_override) or a value of the program's own.
struct Knob {
    std::string_view key;
    std::variant<Scenario*, double*, unsigned*, unsigned long*, unsigned long long*> target;
};

/// Applies one `key=value` token to the knob its key names. Throws
/// std::invalid_argument naming the key on an unknown key or a value the
/// target rejects.
void apply_knob(std::span<const Knob> knobs, std::string_view token);

/// apply_knob() over argv, then require_valid() on every Scenario target.
/// On the first rejection prints `<prog>: '<token>': <why>` (or the
/// scenario's messages) to stderr and exits 2.
void apply_knobs(int argc, char** argv, std::initializer_list<Knob> knobs);

/// Returns when every scenario passes validate(). Otherwise prints each
/// message of the first invalid one as `<prog>: <message>` to stderr and
/// exits 2, the exit of a rejected knob. `prog` may be a path (argv[0]);
/// only its last component is printed.
void require_valid(std::string_view prog, std::span<const Scenario> scenarios);

}  // namespace tibfit::exp
