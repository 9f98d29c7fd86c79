#include "exp/location_experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "cluster/leach.h"
#include "exp/world.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "sensor/mobility.h"
#include "util/invariant.h"

namespace tibfit::exp {

namespace {

/// Radio range covering the whole field plus the off-field base station.
constexpr double kRange = 400.0;

}  // namespace

Scenario to_scenario(const LocationConfig& c) {
    Scenario s = Scenario::location_defaults();
    s.seed = c.seed;
    s.engine.policy = c.policy;
    s.engine.r_error = c.r_error;
    s.engine.t_out = c.t_out;
    s.engine.trust.lambda = c.lambda;
    s.engine.trust.fault_rate = c.fault_rate;
    s.engine.trust.removal_ti = c.removal_ti;
    s.engine.collusion_defense = c.collusion_defense;
    s.engine.trust_weighted_location = c.trust_weighted_location;
    s.channel.drop_probability = c.channel_drop;
    s.channel.airtime = c.channel_airtime;
    s.deployment.field = c.field;
    s.deployment.sensing_radius = c.sensing_radius;
    s.faults.correct_sigma = c.correct_sigma;
    s.faults.faulty_sigma = c.faulty_sigma;
    s.faults.faulty_drop_rate = c.faulty_drop_rate;
    s.faults.false_alarm_rate = c.false_alarm_rate;
    s.faults.lower_ti = c.lower_ti;
    s.faults.upper_ti = c.upper_ti;
    s.faults.collusion_jitter = c.collusion_jitter;
    s.mobility.speed_min = c.speed_min;
    s.mobility.speed_max = c.speed_max;
    s.mobility.tick = c.mobility_tick;
    s.location.n_nodes = c.n_nodes;
    s.location.grid_layout = c.grid_layout;
    s.location.pct_faulty = c.pct_faulty;
    s.location.fault_level = c.fault_level;
    s.location.multihop = c.multihop;
    s.location.radio_range = c.radio_range;
    s.location.mobile = c.mobile;
    s.location.n_ch = c.n_ch;
    s.location.rotation_period = c.rotation_period;
    s.location.events = c.events;
    s.location.event_interval = c.event_interval;
    s.location.burst = c.burst;
    s.location.tx_jitter = c.tx_jitter;
    s.location.decay = c.decay;
    s.location.decay_initial = c.decay_initial;
    s.location.decay_step = c.decay_step;
    s.location.decay_final = c.decay_final;
    s.location.decay_epoch_events = c.decay_epoch_events;
    s.location.epoch_events = c.epoch_events;
    s.recorder = c.recorder;
    return s;
}

LocationScore score_location(std::span<const sensor::GeneratedEvent> events,
                             std::span<const cluster::DecisionRecord> decisions,
                             double match_window, double r_error) {
    constexpr auto time = &cluster::DecisionRecord::time;
    TIBFIT_CHECK(std::ranges::is_sorted(decisions, {}, time), "decision log is not in time order");
    LocationScore score;
    score.event_detected.assign(events.size(), false);
    std::vector<bool> explained(decisions.size(), false);
    for (std::size_t e = 0; e < events.size(); ++e) {
        const auto& ev = events[e];
        // dec.time - ev.time is monotone in dec.time and negative exactly
        // when dec.time < ev.time, so the window [0, match_window] is the
        // run from the first decision at or after the event up to the
        // first one past the window.
        const auto first = std::ranges::lower_bound(decisions, ev.time, {}, time);
        for (auto d = static_cast<std::size_t>(first - decisions.begin()); d < decisions.size();
             ++d) {
            const auto& dec = decisions[d];
            if (dec.time - ev.time > match_window) break;
            if (!dec.has_location) continue;
            if (util::distance(dec.location, ev.location) > r_error) continue;
            explained[d] = true;
            if (dec.event_declared) score.event_detected[e] = true;
        }
        if (score.event_detected[e]) ++score.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (!explained[d] && decisions[d].event_declared) ++score.false_positives;
    }
    return score;
}

LocationResult run_location_experiment(const Scenario& scenario) {
    const LocationWorkload& wl = scenario.location;
    World w(scenario, Scenario::Kind::Location,
            {wl.n_nodes, wl.decay ? wl.decay_initial : wl.pct_faulty, wl.fault_level,
             scenario.deployment.sensing_radius});
    const double field = scenario.deployment.field;
    const std::size_t n_nodes = wl.n_nodes;
    net::Channel& channel = w.channel;

    // ---- Node placement: the paper's regular lattice, or uniform ----
    std::vector<util::Vec2> positions;
    if (wl.grid_layout) {
        const auto side = static_cast<std::size_t>(
            std::llround(std::sqrt(static_cast<double>(n_nodes))));
        const double spacing = field / static_cast<double>(side);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            positions.push_back({spacing * (0.5 + static_cast<double>(i % side)),
                                 spacing * (0.5 + static_cast<double>(i / side))});
        }
    } else {
        positions = w.random_positions();
    }
    const double sensor_range = wl.multihop ? wl.radio_range : kRange;
    w.add_nodes(std::move(positions), sensor_range, wl.tx_jitter);

    // ---- Cluster heads + base station ----
    // Static: n_ch dedicated CH entities, the first active. LEACH: one
    // inactive CH role co-located with every node, activated by election.
    const bool leach = wl.clustering == Clustering::Leach;
    const std::size_t n_heads = leach ? n_nodes : wl.n_ch;
    const auto bs_id = static_cast<sim::ProcessId>(n_nodes + n_heads);
    std::vector<std::unique_ptr<cluster::ClusterHead>> heads;
    for (std::size_t c = 0; c < n_heads; ++c) {
        const auto id = static_cast<sim::ProcessId>(n_nodes + c);
        heads.push_back(std::make_unique<cluster::ClusterHead>(
            w.simulator, id, net::Radio(channel, id), w.engine));
        cluster::ClusterHead& head = *heads.back();
        w.add_head(head);
        head.set_binary_mode(false);
        head.set_topology(w.positions);
        head.set_base_station(bs_id);
        head.set_active(!leach && c == 0);
        // Dedicated CHs sit near the field centre, spread slightly so they
        // are distinct radio endpoints.
        channel.attach(head,
                       leach ? w.positions[c]
                             : util::Vec2{field / 2.0 + 2.0 * static_cast<double>(c), field / 2.0},
                       kRange);
        channel.set_drop_probability(id, 0.0);  // CH control traffic is reliable
    }
    cluster::BaseStation station(w.simulator, bs_id, net::Radio(channel, bs_id), w.trust);
    channel.attach(station, {field / 2.0, field + 20.0}, kRange);
    channel.set_drop_probability(bs_id, 0.0);

    // ---- Multi-hop relay fabric (Section 3.4 extension) ----
    // Sensors route reports toward the CHs through each other; CHs unwrap.
    if (wl.multihop) w.enable_relay(kRange);

    // ---- Mobility (Section 2 extension) ----
    sensor::MobilityParams mob_params = scenario.mobility;
    mob_params.field_w = field;
    mob_params.field_h = field;
    sensor::MobilityManager mobility(w.simulator, w.root.stream("mobility"), mob_params);
    if (wl.mobile) {
        for (auto& n : w.nodes) mobility.manage(*n, channel);
        mobility.on_tick([&] {
            // The CHs re-estimate node positions (Section 2's requirement
            // for mobile operation); relay routes are rebuilt when in use.
            std::vector<util::Vec2> current(n_nodes);
            for (std::size_t i = 0; i < n_nodes; ++i) current[i] = w.nodes[i]->position();
            for (auto& h : heads) h->set_topology(current);
            if (wl.multihop) w.rebuild_routes(current);
        });
    }

    // ---- Event schedule ----
    std::size_t total_events = wl.events;
    if (wl.decay) {
        const auto epochs = static_cast<std::size_t>(
            std::llround((wl.decay_final - wl.decay_initial) / wl.decay_step)) + 1;
        total_events = epochs * wl.decay_epoch_events;
    }
    const double start = 5.0;
    const std::size_t instants = (total_events + wl.burst - 1) / wl.burst;
    w.generator.schedule_events(instants, wl.event_interval, start, wl.burst,
                                wl.burst > 1 ? w.engine.r_error : 0.0);
    if (w.faults.false_alarm_rate > 0.0) {
        w.generator.schedule_quiet_windows(instants, wl.event_interval,
                                           start + wl.event_interval / 3.0,
                                           wl.event_interval / 3.0);
    }

    // ---- CH rotation schedule ----
    // Static: rotations happen between events, every rotation_period event
    // instants. LEACH: a round every round_duration from t = 0.
    const double rotation_gap = wl.event_interval / 2.0;
    std::size_t active_ch = 0;
    std::optional<cluster::LeachRounds> rounds;
    if (leach) {
        rounds.emplace(w.simulator, w.root.stream("election"),
                       cluster::LeachParams{wl.leach.ch_fraction}, wl.leach.initial_energy, w.nodes,
                       heads, station);
        rounds->start(wl.leach.round_duration, wl.event_interval * static_cast<double>(instants));
    }
    const std::size_t n_rotations =
        leach || !wl.rotation_period ? 0 : instants / wl.rotation_period;
    for (std::size_t r = 1; r <= n_rotations; ++r) {
        const double at = start +
                          wl.event_interval * static_cast<double>(r * wl.rotation_period) -
                          rotation_gap;
        if (at <= start) continue;
        w.simulator.schedule_at(at, [&heads, &w, &active_ch, n_ch = wl.n_ch] {
            heads[active_ch]->end_leadership();
            active_ch = (active_ch + 1) % n_ch;
            heads[active_ch]->set_active(true);
            heads[active_ch]->request_archive();
            for (auto& n : w.nodes) n->set_cluster_head(heads[active_ch]->id());
        });
    }

    // ---- Decay schedule (Experiment 3) ----
    if (wl.decay) {
        const auto epochs = total_events / wl.decay_epoch_events;
        for (std::size_t e = 1; e < epochs; ++e) {
            const double at = start +
                              wl.event_interval *
                                  static_cast<double>(e * wl.decay_epoch_events) -
                              rotation_gap / 2.0;
            const double target_pct = wl.decay_initial + wl.decay_step * static_cast<double>(e);
            w.simulator.schedule_at(at, [&w, target_pct] { w.raise_compromised(target_pct); });
        }
    }

    w.schedule_campaign();
    if (wl.mobile) mobility.start(start + wl.event_interval * static_cast<double>(instants));

    w.simulator.run();

    // ---- Scoring ----
    LocationResult result;
    const auto& history = w.generator.history();
    result.events = history.size();
    const double match_window = 3.0 * w.engine.t_out + 1.0;

    const LocationScore score =
        score_location(history, w.decisions, match_window, w.engine.r_error);
    result.detected = score.detected;
    result.false_positives = score.false_positives;
    result.accuracy = result.events ? static_cast<double>(result.detected) /
                                          static_cast<double>(result.events)
                                    : 0.0;

    // Per-epoch accuracy series (events are ordered by generation time).
    if (wl.epoch_events > 0) {
        const std::vector<bool>& detected = score.event_detected;
        for (std::size_t i = 0; i < detected.size(); i += wl.epoch_events) {
            const std::size_t end = std::min(i + wl.epoch_events, detected.size());
            const auto hits = std::count(detected.begin() + static_cast<std::ptrdiff_t>(i),
                                         detected.begin() + static_cast<std::ptrdiff_t>(end),
                                         true);
            result.epoch_accuracy.push_back(static_cast<double>(hits) /
                                            static_cast<double>(end - i));
        }
    }

    // Final trust state: the active dedicated CH's table, or under LEACH
    // the base-station archive.
    const auto& tm = leach ? station.archive() : heads[active_ch]->engine().trust();
    if (rounds) result.rounds = rounds->rounds();
    result.isolated = tm.isolated_nodes().size();
    if (obs::Recorder* rec = w.rec) {
        auto& reg = rec->metrics();
        reg.gauge(obs::metric::kExpFalsePositives)
            .set(static_cast<double>(result.false_positives));
        reg.gauge(obs::metric::kExpIsolated).set(static_cast<double>(result.isolated));
    }
    w.finish(result, tm);
    return result;
}

}  // namespace tibfit::exp
