// Self-organized location runs (location.clustering = leach): LEACH heads
// elected from the sensors every round, energy-driven rotation, and trust
// carried across rounds by the base-station archive.
#include <gtest/gtest.h>

#include <set>

#include "exp/location_experiment.h"

namespace tibfit::exp {
namespace {

/// A 6x6 lattice (spacing ~16.7: a field several clusters wide), LEACH at
/// P = 0.08 with a round every 100 s, `events` events `interval` apart.
Scenario leach_run(std::uint64_t seed, std::size_t events, double interval,
                   double pct_faulty = 0.0) {
    Scenario s = Scenario::location_defaults();
    s.seed = seed;
    s.faults.natural_error_rate = 0.01;
    s.location.n_nodes = 36;
    s.location.pct_faulty = pct_faulty;
    s.location.events = events;
    s.location.event_interval = interval;
    s.location.clustering = Clustering::Leach;
    s.location.leach.ch_fraction = 0.08;
    return s;
}

TEST(LeachRun, ElectsHeadsEveryRound) {
    const LocationResult r = run_location_experiment(leach_run(2, 45, 10.0));
    ASSERT_EQ(r.rounds.size(), 5u);  // t = 0, 100, ..., 400 < 450
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
        EXPECT_GE(r.rounds[i].heads.size(), 1u) << "round " << i;
        EXPECT_EQ(r.rounds[i].alive, 36u);
        EXPECT_EQ(r.rounds[i].compromised_heads, 0u);
    }
}

TEST(LeachRun, LeadershipRotates) {
    const LocationResult r = run_location_experiment(leach_run(3, 100, 10.0));
    ASSERT_EQ(r.rounds.size(), 10u);
    std::set<sim::ProcessId> ever_head;
    for (const auto& round : r.rounds) ever_head.insert(round.heads.begin(), round.heads.end());
    // Over 10 rounds at 8% CH fraction, many distinct nodes should serve.
    EXPECT_GE(ever_head.size(), 8u);
}

TEST(LeachRun, DetectsEventsEndToEnd) {
    const LocationResult r = run_location_experiment(leach_run(4, 30, 20.0));
    // Self-organized clusters are lossier than dedicated CHs (events near
    // cluster boundaries split their reports), but the bulk of events must
    // still be detected and located.
    EXPECT_EQ(r.events, 30u);
    EXPECT_GE(r.detected * 10, r.events * 7);
}

TEST(LeachRun, EnergyDrainsOverTime) {
    Scenario s = leach_run(5, 40, 10.0);
    s.location.leach.initial_energy = 0.008;  // small battery so drain is visible
    const LocationResult r = run_location_experiment(s);
    ASSERT_FALSE(r.rounds.empty());
    // On a starvation budget some heads burn out entirely, but rotation
    // spreads the load: most of the network survives, and nobody revives.
    for (std::size_t i = 1; i < r.rounds.size(); ++i) {
        EXPECT_LE(r.rounds[i].alive, r.rounds[i - 1].alive) << "round " << i;
    }
    EXPECT_LT(r.rounds.back().alive, 36u);
    EXPECT_GE(r.rounds.back().alive + 6, 36u);
}

TEST(LeachRun, TrustAccruesInArchiveAcrossRounds) {
    const LocationResult r = run_location_experiment(leach_run(7, 60, 15.0, 12.0 / 36.0));
    // After many decisions and deposits, the archive separates the classes.
    EXPECT_LT(r.mean_ti_faulty, r.mean_ti_correct);
}

TEST(LeachRun, Deterministic) {
    Scenario s = leach_run(8, 20, 15.0, 6.0 / 36.0);
    s.keep_decisions = true;
    const LocationResult a = run_location_experiment(s);
    const LocationResult b = run_location_experiment(s);
    ASSERT_FALSE(a.decisions.empty());
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
        EXPECT_EQ(a.decisions[i].time, b.decisions[i].time);
        EXPECT_EQ(a.decisions[i].location.x, b.decisions[i].location.x);
    }
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < a.rounds.size(); ++i) {
        EXPECT_EQ(a.rounds[i].heads, b.rounds[i].heads);
    }
}

TEST(LeachRun, StaticRunsRecordNoRounds) {
    Scenario s = Scenario::location_defaults();
    s.location.events = 20;
    EXPECT_TRUE(run_location_experiment(s).rounds.empty());
}

}  // namespace
}  // namespace tibfit::exp
