#include "exp/world.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::exp {

namespace {

const Scenario& validated(const Scenario& scenario, Scenario::Kind kind) {
    Scenario as_run = scenario;
    as_run.kind = kind;
    const std::vector<std::string> errors = as_run.validate();
    if (errors.empty()) return scenario;
    std::string what;
    for (const std::string& e : errors) what += (what.empty() ? "" : "\n") + e;
    throw std::invalid_argument(what);
}

std::unique_ptr<sensor::FaultBehavior> make_behavior(
    sensor::NodeClass cls, const sensor::FaultParams& fp,
    const std::shared_ptr<sensor::CollusionChannel>& collusion, bool binary_mode) {
    switch (cls) {
        case sensor::NodeClass::Correct:
            return std::make_unique<sensor::CorrectBehavior>(fp);
        case sensor::NodeClass::Level0:
            return std::make_unique<sensor::Level0Fault>(fp, binary_mode);
        case sensor::NodeClass::Level1:
            return std::make_unique<sensor::Level1Fault>(fp, binary_mode);
        case sensor::NodeClass::Level2:
            return std::make_unique<sensor::Level2Fault>(fp, binary_mode, collusion);
    }
    return nullptr;
}

}  // namespace

World::World(const Scenario& s, Scenario::Kind kind, const Population& population)
    : scenario(validated(s, kind)),
      root(s.seed),
      rec(s.recorder),
      channel(simulator, root.stream("channel"), s.channel),
      trust(s.effective_trust()),
      faults(s.faults),
      engine(s.engine),
      generator(simulator, root.stream("events"), s.deployment.field, s.deployment.field),
      n_nodes_(population.n_nodes),
      binary_(kind == Scenario::Kind::Binary),
      fault_level_(population.fault_level),
      faulty_(population.n_nodes, false),
      compromise_order_(population.n_nodes) {
    if (rec) {
        obs::preregister_standard_metrics(rec->metrics());
        rec->set_clock([this] { return simulator.now(); });
        generator.on_event([r = rec](const sensor::GeneratedEvent& ev) {
            if (!r->trace().enabled()) return;
            const auto n = static_cast<std::uint32_t>(ev.event_neighbours.size());
            r->trace().append(ev.time, obs::EventInjected{ev.id, ev.location.x, ev.location.y, n});
        });
    }
    channel.set_recorder(rec);

    // One Campaign per run; its streams derive from the run's root, so a
    // campaign replayed under a different trial seed reshuffles its coins
    // exactly like every other component.
    if (s.campaign.enabled()) {
        campaign.emplace(s.campaign, simulator, root.stream("inject"));
        campaign->set_recorder(rec);
        campaign->arm_channel(channel);
    }

    engine.sensing_radius = population.sensing_radius;
    engine.trust = trust;
    if (fault_level_ == sensor::NodeClass::Level2) {
        collusion_ = std::make_shared<sensor::CollusionChannel>(root.stream("collusion"), faults,
                                                                binary_);
    }

    // A fixed random permutation decides which nodes are (or become)
    // faulty; decay epochs and campaign onsets extend its prefix.
    std::iota(compromise_order_.begin(), compromise_order_.end(), 0);
    util::Rng pick = root.stream("select");
    for (std::size_t i = n_nodes_; i > 1; --i) {
        std::swap(compromise_order_[i - 1], compromise_order_[pick.uniform_index(i)]);
    }
    const auto initially_faulty =
        static_cast<std::size_t>(population.initial_pct * static_cast<double>(n_nodes_) + 0.5);
    for (std::size_t i = 0; i < initially_faulty && i < n_nodes_; ++i) {
        faulty_[compromise_order_[i]] = true;
    }

    // Self-checking: invariants are evaluated for the duration of the run
    // (add_head attaches the oracles). With check.mode off the globals are
    // untouched and no hook fires.
    if (s.check.mode != check::Mode::Off) {
        check_scope_.emplace(s.check.mode == check::Mode::Assert ? util::InvariantAction::Throw
                                                                 : util::InvariantAction::Count);
    }
}

World::~World() {
    if (rec) rec->set_clock({});
}

std::vector<util::Vec2> World::random_positions() const {
    util::Rng placement = root.stream("placement");
    const double f = scenario.deployment.field;
    std::vector<util::Vec2> out(n_nodes_);
    for (auto& p : out) p = placement.point_in_rect(f, f);
    return out;
}

void World::add_nodes(std::vector<util::Vec2> node_positions, double radio_range,
                      double tx_jitter) {
    positions = std::move(node_positions);
    node_range_ = radio_range;
    // Only smart behaviours read the TI mirror. Compromise onsets install
    // fault_level_ and nothing else, so the rule is per world: in a smart
    // world every node mirrors from t = 0, and a node compromised later
    // never lies from a stale mirror.
    const bool mirrors = fault_level_ == sensor::NodeClass::Level1 ||
                         fault_level_ == sensor::NodeClass::Level2;
    nodes.reserve(n_nodes_);
    std::vector<sensor::SensorNode*> raw;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
        const auto id = static_cast<sim::ProcessId>(i);
        const auto cls = faulty_[i] ? fault_level_ : sensor::NodeClass::Correct;
        auto node = std::make_unique<sensor::SensorNode>(
            simulator, id, positions[i], engine.sensing_radius, net::Radio(channel, id),
            make_behavior(cls, faults, collusion_, binary_), root.stream("node", i), trust);
        node->set_mirrors_trust(mirrors);
        node->set_binary_mode(binary_);
        node->set_tx_jitter(tx_jitter);
        node->set_cluster_head(static_cast<sim::ProcessId>(n_nodes_));
        channel.attach(*node, positions[i], radio_range);
        raw.push_back(node.get());
        nodes.push_back(std::move(node));
    }
    generator.set_nodes(std::move(raw));
}

void World::add_head(cluster::ClusterHead& head) {
    head.set_recorder(rec);
    head.on_decision([this](const cluster::DecisionRecord& r) { decisions.push_back(r); });
    heads_.push_back(&head);
    if (check_scope_) {
        // One lockstep oracle per engine; rotation and failover hand trust
        // tables between heads, and each oracle resyncs on adoption.
        shadows_.push_back(std::make_unique<check::ShadowArbiter>(
            engine, scenario.check.mode == check::Mode::Assert));
        head.engine().set_checker(shadows_.back().get());
    }
}

void World::enable_relay(double head_range) {
    head_range_ = head_range;
    rebuild_routes(positions);
    for (auto& n : nodes) n->enable_relay(&routes_, scenario.transport);
    for (auto* h : heads_) h->enable_relay(&routes_, scenario.transport);
}

void World::rebuild_routes(const std::vector<util::Vec2>& node_positions) {
    std::vector<net::RouterEntry> entries;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
        entries.push_back({static_cast<sim::ProcessId>(i), node_positions[i], node_range_});
    }
    for (auto* h : heads_) entries.push_back({h->id(), channel.position(h->id()), head_range_});
    routes_.rebuild(std::move(entries));
}

void World::raise_compromised(double target_pct) {
    const auto target =
        static_cast<std::size_t>(target_pct * static_cast<double>(n_nodes_) + 0.5);
    for (std::size_t i = 0; i < target && i < n_nodes_; ++i) {
        const std::size_t idx = compromise_order_[i];
        if (faulty_[idx]) continue;
        faulty_[idx] = true;
        nodes[idx]->set_behavior(make_behavior(fault_level_, faults, collusion_, binary_));
    }
}

void World::schedule_campaign() {
    if (!campaign) return;
    campaign->on_compromise(
        [this](const inject::CompromiseOnset& onset) { raise_compromised(onset.target_pct); });
    campaign->on_fault_shift([this](const inject::FaultRateShift& shift) {
        if (shift.missed_alarm_rate >= 0.0) faults.missed_alarm_rate = shift.missed_alarm_rate;
        if (shift.false_alarm_rate >= 0.0) faults.false_alarm_rate = shift.false_alarm_rate;
        for (std::size_t i = 0; i < n_nodes_; ++i) {
            if (!faulty_[i]) continue;
            nodes[i]->set_behavior(make_behavior(fault_level_, faults, collusion_, binary_));
        }
    });
    campaign->schedule();
}

void World::finish(RunResult& result, const core::TrustManager& final_trust) {
    double sum_c = 0.0, sum_f = 0.0;
    std::size_t n_c = 0, n_f = 0;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
        (faulty_[i] ? sum_f : sum_c) += final_trust.ti(static_cast<core::NodeId>(i));
        ++(faulty_[i] ? n_f : n_c);
    }
    result.mean_ti_correct = n_c ? sum_c / static_cast<double>(n_c) : 1.0;
    result.mean_ti_faulty = n_f ? sum_f / static_cast<double>(n_f) : 1.0;

    std::size_t checked = 0, divergences = 0;
    for (const auto& shadow : shadows_) {
        checked += shadow->decisions_checked();
        divergences += shadow->divergences();
    }
    result.checked_decisions += checked;
    result.oracle_divergences += divergences;

    if (rec) {
        auto& reg = rec->metrics();
        reg.counter(obs::metric::kSimEventsExecuted).inc(simulator.executed());
        reg.gauge(obs::metric::kSimQueueHighWater)
            .set_max(static_cast<double>(simulator.queue_high_water()));
        reg.counter(obs::metric::kChannelDelivered).inc(channel.delivered());
        reg.counter(obs::metric::kChannelDropped).inc(channel.dropped());
        reg.counter(obs::metric::kChannelOutOfRange).inc(channel.out_of_range());
        reg.counter(obs::metric::kChannelCollisions).inc(channel.collisions());
        // Injection-free runs keep their historical artifact shape: the
        // injected_* counters exist only where a campaign armed the channel.
        if (campaign && !scenario.campaign.degradations.empty()) {
            reg.counter(obs::metric::kInjectedDrops).inc(channel.injected_drops());
            reg.counter(obs::metric::kInjectedDuplicates).inc(channel.injected_duplicates());
            reg.counter(obs::metric::kInjectedDelays).inc(channel.injected_delays());
            reg.counter(obs::metric::kInjectedReorders).inc(channel.injected_reorders());
        }
        std::size_t originated = 0, forwarded = 0, retransmissions = 0, gave_up = 0,
                    duplicates = 0;
        const auto add_transport = [&](const net::ReliableTransport* t) {
            if (!t) return;
            originated += t->originated();
            forwarded += t->forwarded();
            retransmissions += t->retransmissions();
            gave_up += t->gave_up();
            duplicates += t->duplicates_suppressed();
        };
        for (const auto& n : nodes) add_transport(n->transport());
        for (const auto* h : heads_) add_transport(h->transport());
        reg.counter(obs::metric::kTransportOriginated).inc(originated);
        reg.counter(obs::metric::kTransportForwarded).inc(forwarded);
        reg.counter(obs::metric::kTransportRetransmissions).inc(retransmissions);
        reg.counter(obs::metric::kTransportGaveUp).inc(gave_up);
        reg.counter(obs::metric::kTransportDuplicates).inc(duplicates);
        if (!shadows_.empty()) {
            reg.counter(obs::metric::kCheckDecisionsChecked).inc(checked);
            reg.counter(obs::metric::kCheckDivergences).inc(divergences);
        }
        reg.gauge(obs::metric::kExpAccuracy).set(result.accuracy);
        reg.gauge(obs::metric::kExpEvents).set(static_cast<double>(result.events));
        reg.gauge(obs::metric::kExpDetected).set(static_cast<double>(result.detected));
        reg.gauge(obs::metric::kExpMeanTi)
            .set(n_nodes_ ? (sum_c + sum_f) / static_cast<double>(n_nodes_) : 1.0);
        reg.gauge(obs::metric::kExpMeanTiCorrect).set(result.mean_ti_correct);
        reg.gauge(obs::metric::kExpMeanTiFaulty).set(result.mean_ti_faulty);
        if (campaign) {
            std::size_t degraded = 0;
            for (const auto& d : decisions) {
                degraded += scenario.campaign.degraded_at(d.time) ? 1 : 0;
            }
            reg.counter(obs::metric::kInjectDecisionsDegraded).inc(degraded);
        }
    }
    if (scenario.keep_decisions) result.decisions = std::move(decisions);
}

}  // namespace tibfit::exp
