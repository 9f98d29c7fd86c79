// exp::World — the one place a simulated run is validated and assembled.
//
// All three experiments (Sections 4.1-4.3) simulate the same system:
// sensing nodes, decision-engine cluster heads and a lossy channel,
// optionally under a fault-injection campaign and the check oracle. World
// owns what every run shares — simulator, root RNG, recorder clock,
// channel, campaign, the compromise order and node population, one shadow
// oracle per decision engine, relay routing, the event generator with its
// trace hook, the merged decision log — and the epilogue every run ends
// with. The runners (binary_experiment.cc, location_experiment.cc) add
// only what differs: placement, the CH layout (dedicated, or one LEACH role
// per node), schedules and scoring.
//
// Order is part of the output: channel endpoints live in a hash map, so
// attach order fixes broadcast iteration order, and the simulator breaks
// time ties by push order. World attaches only the nodes (add_nodes) and
// schedules only the campaign (schedule_campaign); the runners keep every
// other attach and schedule in order. Stream derivations never advance the
// root RNG, so where they happen is free.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "check/shadow_arbiter.h"
#include "cluster/cluster_head.h"
#include "exp/scenario.h"
#include "inject/campaign.h"
#include "net/channel.h"
#include "net/routing.h"
#include "sensor/collusion.h"
#include "sensor/event_generator.h"
#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "util/invariant.h"
#include "util/rng.h"

namespace tibfit::exp {

/// What a runner asks World to populate.
struct Population {
    std::size_t n_nodes = 0;
    double initial_pct = 0.0;  ///< compromised fraction at t = 0
    sensor::NodeClass fault_level = sensor::NodeClass::Level0;
    double sensing_radius = 0.0;  ///< every node's r_s, and the engines'
};

class World {
  public:
    /// Validates `scenario` as a run of `kind` (throws std::invalid_argument
    /// listing every validate() message), then builds the simulator,
    /// channel, optional campaign and the compromise order: a seeded
    /// permutation whose first initial_pct are faulty from the start.
    World(const Scenario& scenario, Scenario::Kind kind, const Population& population);
    ~World();  ///< detaches the recorder clock (the simulator dies here)
    World(const World&) = delete;  ///< callbacks hold `this`
    World& operator=(const World&) = delete;

    std::vector<util::Vec2> random_positions() const;  ///< uniform on the field

    /// Builds sensing nodes 0..n-1 at `node_positions`, reporting to CH id
    /// n, and attaches them to the channel in id order.
    void add_nodes(std::vector<util::Vec2> node_positions, double radio_range,
                   double tx_jitter = 0.0);

    /// Registers a decision-engine CH: recorder, merged decision log and,
    /// with check on, a lockstep shadow oracle.
    void add_head(cluster::ClusterHead& head);

    /// Sends every node's reports over the relay transport toward the
    /// registered heads (radio range `head_range`); rebuild_routes()
    /// refreshes the routes for moved nodes.
    void enable_relay(double head_range);
    void rebuild_routes(const std::vector<util::Vec2>& node_positions);

    /// Extends the compromised prefix of the compromise order to
    /// `target_pct` of the population (decay epochs, campaign onsets).
    void raise_compromised(double target_pct);

    /// Wires compromise onsets and fault-rate shifts to the population and
    /// schedules the campaign timeline; a no-op without a campaign.
    void schedule_campaign();

    /// The shared epilogue: mean TI split by ground truth (read from
    /// `final_trust`), oracle tallies, the kept decision log and, with a
    /// recorder, the run's metrics. The sim, channel, transport and check
    /// counts are published here, once, from their layers' tallies. Call
    /// after scoring `result`.
    void finish(RunResult& result, const core::TrustManager& final_trust);

    const Scenario& scenario;
    sim::Simulator simulator;
    util::Rng root;
    obs::Recorder* const rec;
    net::Channel channel;
    std::optional<inject::Campaign> campaign;
    const core::TrustParams trust;
    sensor::FaultParams faults;  ///< mutable: campaign fault-rate shifts
    /// scenario.engine with the effective trust and the population's r_s.
    core::EngineConfig engine;
    std::vector<util::Vec2> positions;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    sensor::EventGenerator generator;
    std::vector<cluster::DecisionRecord> decisions;  ///< every head's log, merged

  private:
    const std::size_t n_nodes_;
    const bool binary_;
    const sensor::NodeClass fault_level_;
    std::vector<bool> faulty_;
    std::vector<std::size_t> compromise_order_;
    std::shared_ptr<sensor::CollusionChannel> collusion_;
    std::optional<util::ScopedInvariantAction> check_scope_;
    std::vector<cluster::ClusterHead*> heads_;  ///< decision engines, in add order
    std::vector<std::unique_ptr<check::ShadowArbiter>> shadows_;
    net::RoutingTable routes_;
    double node_range_ = 0.0;
    double head_range_ = 0.0;
};

}  // namespace tibfit::exp
