#include "replays.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "alloc_count.h"
#include "check/shadow_arbiter.h"
#include "core/decision_engine.h"
#include "core/event_clusterer.h"
#include "net/channel.h"
#include "net/packet.h"
#include "sensor/fault_model.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace tibfit;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Calls `batch` until `budget_s` has passed and at least three batches
/// ran; returns every batch's result.
template <typename Batch>
std::vector<double> repeat(double budget_s, Batch batch) {
    std::vector<double> out;
    const auto t0 = Clock::now();
    while (out.size() < 3 || since(t0) < budget_s) out.push_back(batch());
    return out;
}

// Radio ranges the experiment runners give their endpoints
// (exp/location_experiment.cc kRange, exp/binary_experiment.cc kBigRadius).
constexpr double kLocationRange = 400.0;
constexpr double kBinaryRange = 1000.0;

/// Where the scenario's runner puts its sensors, cluster heads and base
/// station, and how far each one's radio reaches.
struct Layout {
    std::vector<util::Vec2> sensors;
    double sensor_range = 0.0;
    std::vector<util::Vec2> heads;  ///< heads[0] is the active CH
    std::vector<util::Vec2> stations;
    double infra_range = 0.0;
    double sensing_radius = 0.0;
};

Layout make_layout(const exp::Scenario& s, util::Rng& rng) {
    Layout l;
    const double field = s.deployment.field;
    if (s.kind == exp::Scenario::Kind::Binary) {
        for (std::size_t i = 0; i < s.binary.n_nodes; ++i) {
            l.sensors.push_back(rng.point_in_rect(field, field));
        }
        l.sensor_range = l.infra_range = kBinaryRange;
        l.heads.push_back({field / 2.0, field / 2.0});
        l.sensing_radius = kBinaryRange;
        return l;
    }
    const std::size_t n = s.location.n_nodes;
    const auto side = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(n))));
    const double spacing = field / static_cast<double>(side);
    for (std::size_t i = 0; i < n; ++i) {
        l.sensors.push_back(s.location.grid_layout
                                ? util::Vec2{spacing * (0.5 + static_cast<double>(i % side)),
                                             spacing * (0.5 + static_cast<double>(i / side))}
                                : rng.point_in_rect(field, field));
    }
    l.sensor_range = s.location.multihop ? s.location.radio_range : kLocationRange;
    for (std::size_t c = 0; c < s.location.n_ch; ++c) {
        l.heads.push_back({field / 2.0 + 2.0 * static_cast<double>(c), field / 2.0});
    }
    l.stations.push_back({field / 2.0, field + 20.0});
    l.infra_range = kLocationRange;
    l.sensing_radius = s.deployment.sensing_radius;
    return l;
}

// ---- sim ----

struct SimChurn {
    sim::Simulator sim;
    std::vector<double> delays;
    std::size_t next = 0;
    std::size_t remaining = 0;
    std::uint64_t sink = 0;
};

/// Same capture as Channel::deliver's closure: one pointer plus a Packet.
struct DeliveryLike {
    SimChurn* churn;
    net::Packet packet;

    void operator()() {
        churn->sink += packet.src;
        if (churn->remaining == 0) return;
        --churn->remaining;
        const double d = churn->delays[churn->next++ % churn->delays.size()];
        churn->sim.schedule(d, DeliveryLike{churn, packet});
    }
};

// ---- net ----

class SinkProcess final : public sim::Process {
  public:
    using sim::Process::Process;
    void handle_packet(const net::Packet&) override { ++received_; }

  private:
    std::size_t received_ = 0;
};

// ---- core ----

struct Window {
    std::vector<core::EventReport> reports;
    std::vector<core::NodeId> neighbours;
    std::vector<core::NodeId> reporters;
    std::vector<util::Vec2> points;
};

core::EngineConfig engine_config(const exp::Scenario& s) {
    core::EngineConfig cfg = s.engine;
    cfg.trust = s.effective_trust();
    cfg.sensing_radius = s.deployment.sensing_radius;
    return cfg;
}

std::vector<Window> draw_windows(const exp::Scenario& s, const Layout& layout, util::Rng& rng,
                                 std::size_t count) {
    const bool binary = s.kind == exp::Scenario::Kind::Binary;
    const std::size_t n = layout.sensors.size();
    const double pct = binary ? s.binary.pct_faulty : s.location.pct_faulty;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_index(i)]);
    const auto n_faulty = static_cast<std::size_t>(pct * static_cast<double>(n) + 0.5);
    std::vector<std::unique_ptr<sensor::FaultBehavior>> behaviours(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < n_faulty) {
            behaviours[order[i]] = std::make_unique<sensor::Level0Fault>(s.faults, binary);
        } else {
            behaviours[order[i]] = std::make_unique<sensor::CorrectBehavior>(s.faults);
        }
    }

    const double field = s.deployment.field;
    std::vector<Window> windows(count);
    for (std::size_t e = 0; e < count; ++e) {
        Window& w = windows[e];
        const util::Vec2 truth = rng.point_in_rect(field, field);
        for (std::size_t i = 0; i < n; ++i) {
            if (util::distance(layout.sensors[i], truth) > layout.sensing_radius) continue;
            const auto id = static_cast<core::NodeId>(i);
            w.neighbours.push_back(id);
            sensor::SenseContext ctx;
            ctx.event_id = e;
            ctx.true_location = truth;
            ctx.node_position = layout.sensors[i];
            ctx.sensing_radius = layout.sensing_radius;
            const sensor::SenseAction a = behaviours[i]->on_event(ctx, rng);
            if (!a.report) continue;
            w.reporters.push_back(id);
            w.reports.push_back({id, 10.0 * static_cast<double>(e), a.location});
            if (a.location) w.points.push_back(*a.location);
        }
    }
    return windows;
}

}  // namespace

SimReplay replay_sim(std::size_t queue_depth, double budget_s) {
    constexpr std::size_t kEvents = 200000;
    const std::size_t depth = std::clamp<std::size_t>(queue_depth, 1, kEvents);
    util::Rng rng(0x5eed);
    std::vector<double> delays(4096);
    for (double& d : delays) d = rng.uniform(1e-4, 5e-3);
    net::Packet proto;
    proto.src = 7;
    proto.dst = 3;
    proto.payload = net::ReportPayload{};

    SimReplay out;
    const auto ns = repeat(budget_s, [&] {
        SimChurn churn;
        churn.delays = delays;
        churn.remaining = kEvents - depth;
        const std::uint64_t a0 = allocations();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < depth; ++i) {
            churn.sim.schedule(delays[i % delays.size()], DeliveryLike{&churn, proto});
        }
        churn.sim.run();
        const double dt = since(t0);
        const auto executed = static_cast<double>(churn.sim.executed());
        out.allocs_per_event = static_cast<double>(allocations() - a0) / executed;
        return 1e9 * dt / executed;
    });
    out.ns_per_event = median(ns);
    return out;
}

NetReplay replay_net(const exp::Scenario& scenario, std::size_t ids_per_decision,
                     double budget_s) {
    constexpr std::size_t kBroadcasts = 200;
    util::Rng rng(scenario.seed);
    const Layout layout = make_layout(scenario, rng);

    net::DecisionPayload decision;
    decision.event_declared = true;
    decision.has_location = true;
    decision.location = {scenario.deployment.field / 2.0, scenario.deployment.field / 2.0};
    for (std::size_t i = 0; i < ids_per_decision; ++i) {
        auto& list = i % 2 ? decision.judged_faulty : decision.judged_correct;
        list.push_back(static_cast<core::NodeId>(i % layout.sensors.size()));
    }

    NetReplay out;
    const auto us = repeat(budget_s, [&] {
        sim::Simulator sim;
        net::Channel channel(sim, rng.stream("channel"), scenario.channel);
        std::vector<std::unique_ptr<SinkProcess>> procs;
        auto attach = [&](const util::Vec2& pos, double range) {
            const auto id = static_cast<sim::ProcessId>(procs.size());
            procs.push_back(std::make_unique<SinkProcess>(sim, id));
            channel.attach(*procs.back(), pos, range);
            return id;
        };
        for (const auto& p : layout.sensors) attach(p, layout.sensor_range);
        sim::ProcessId sender = sim::kNoProcess;
        for (const auto& p : layout.heads) {
            const auto id = attach(p, layout.infra_range);
            channel.set_drop_probability(id, 0.0);  // CH control traffic is reliable
            if (sender == sim::kNoProcess) sender = id;
        }
        for (const auto& p : layout.stations) {
            channel.set_drop_probability(attach(p, layout.infra_range), 0.0);
        }

        double busy = 0.0;
        std::uint64_t allocs = 0;
        for (std::size_t b = 0; b < kBroadcasts; ++b) {
            net::Packet packet;
            packet.src = sender;
            packet.dst = net::kBroadcast;
            packet.sent_at = sim.now();
            decision.decision_seq = b;
            packet.payload = decision;
            const std::uint64_t a0 = allocations();
            const auto t0 = Clock::now();
            channel.broadcast(std::move(packet));
            sim.run();
            busy += since(t0);
            allocs += allocations() - a0;
        }
        out.allocs_per_delivery =
            static_cast<double>(allocs) / static_cast<double>(std::max<std::size_t>(1, channel.delivered()));
        return 1e6 * busy / static_cast<double>(kBroadcasts);
    });
    out.us_per_broadcast = median(us);
    return out;
}

CoreReplay replay_core(const exp::Scenario& scenario, std::uint64_t seed, double budget_s) {
    constexpr std::size_t kWindows = 200;
    constexpr std::size_t kCtiSweeps = 20;
    util::Rng rng(seed);
    const Layout layout = make_layout(scenario, rng);
    const std::vector<Window> windows = draw_windows(scenario, layout, rng, kWindows);
    const core::EngineConfig cfg = engine_config(scenario);
    const bool binary = scenario.kind == exp::Scenario::Kind::Binary;

    std::size_t sink = 0;
    std::optional<core::TrustManager> trained;
    auto decide_all = [&](bool checked) {
        core::DecisionEngine engine(cfg);
        std::optional<check::ShadowArbiter> shadow;
        if (checked) {
            shadow.emplace(cfg);
            engine.set_checker(&*shadow);
        }
        const auto t0 = Clock::now();
        for (const Window& w : windows) {
            if (binary) {
                sink += engine.decide_binary(w.neighbours, w.reporters).event_declared;
            } else {
                sink += engine.decide_location(w.reports, layout.sensors).size();
            }
        }
        const double us = 1e6 * since(t0) / static_cast<double>(windows.size());
        if (checked) {
            engine.set_checker(nullptr);
        } else if (!trained) {
            trained = engine.trust();
        }
        return us;
    };

    // Plain and checked batches alternate so host noise hits both alike.
    std::vector<double> plain, checked;
    const auto t_decide = Clock::now();
    while (plain.size() < 3 || since(t_decide) < budget_s / 2.0) {
        plain.push_back(decide_all(false));
        checked.push_back(decide_all(true));
    }

    const core::EventClusterer clusterer(cfg.r_error);
    std::size_t calls = 0;
    for (const Window& w : windows) calls += !w.points.empty();
    const auto cluster_us = repeat(budget_s / 4.0, [&] {
        const auto t0 = Clock::now();
        for (const Window& w : windows) {
            if (!w.points.empty()) sink += clusterer.cluster(w.points).size();
        }
        return 1e6 * since(t0) / static_cast<double>(std::max<std::size_t>(1, calls));
    });

    double cti_sum = 0.0;
    const auto cti_ns = repeat(budget_s / 4.0, [&] {
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < kCtiSweeps; ++k) {
            for (const Window& w : windows) cti_sum += trained->cumulative_ti(w.neighbours);
        }
        return 1e9 * since(t0) / static_cast<double>(kCtiSweeps * windows.size());
    });

    CoreReplay out;
    out.us_per_decision = median(plain);
    out.check_overhead_ratio = median(checked) / out.us_per_decision;
    out.clusterer_us_per_call = median(cluster_us);
    out.ns_per_cti = median(cti_ns);
    // Keeps the replayed work observable so the optimiser cannot drop it.
    if (sink == 0 && cti_sum < 0.0) out.ns_per_cti = -1.0;
    return out;
}

}  // namespace perfbench
