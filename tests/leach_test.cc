#include "cluster/leach.h"

#include <gtest/gtest.h>

#include <set>

#include "cluster/energy.h"
#include "net/channel.h"

namespace tibfit::cluster {
namespace {

std::vector<Candidate> population(std::size_t n, double ti = 1.0, double energy = 1.0) {
    std::vector<Candidate> out;
    for (std::size_t i = 0; i < n; ++i) {
        Candidate c;
        c.id = static_cast<sim::ProcessId>(i);
        c.energy_fraction = energy;
        c.ti = ti;
        out.push_back(c);
    }
    return out;
}

TEST(Leach, RejectsBadFraction) {
    EXPECT_THROW(LeachElection({0.0, 0.5}, util::Rng(1)), std::invalid_argument);
    EXPECT_THROW(LeachElection({1.5, 0.5}, util::Rng(1)), std::invalid_argument);
}

TEST(Leach, EpochLength) {
    EXPECT_EQ(LeachElection({0.1, 0.5}, util::Rng(1)).epoch_length(), 10u);
    EXPECT_EQ(LeachElection({0.3, 0.5}, util::Rng(1)).epoch_length(), 4u);
}

TEST(Leach, AlwaysElectsAtLeastOneHead) {
    LeachElection e({0.1, 0.5}, util::Rng(3));
    const auto pop = population(20);
    for (std::uint32_t r = 0; r < 50; ++r) {
        const auto result = e.run_round(r, pop);
        EXPECT_GE(result.heads.size(), 1u) << "round " << r;
    }
}

TEST(Leach, TiGateExcludesDistrusted) {
    LeachElection e({0.2, 0.5}, util::Rng(5));
    auto pop = population(10);
    // Only node 3 clears the TI bar.
    for (auto& c : pop) c.ti = 0.3;
    pop[3].ti = 0.9;
    for (std::uint32_t r = 0; r < 20; ++r) {
        const auto result = e.run_round(r, pop);
        for (auto h : result.heads) EXPECT_EQ(h, 3u);
    }
}

TEST(Leach, AllDistrustedFallsBackToHighestTi) {
    LeachElection e({0.2, 0.5}, util::Rng(7));
    auto pop = population(5);
    for (std::size_t i = 0; i < pop.size(); ++i) pop[i].ti = 0.1 * static_cast<double>(i);
    const auto result = e.run_round(0, pop);
    ASSERT_EQ(result.heads.size(), 1u);
    EXPECT_EQ(result.heads[0], 4u);  // highest TI (0.4)
    EXPECT_TRUE(result.drafted);
}

TEST(Leach, ThresholdZeroWhenServedThisEpoch) {
    LeachElection e({0.5, 0.5}, util::Rng(9));  // epoch = 2 rounds
    auto pop = population(4);
    const auto r0 = e.run_round(0, pop);
    ASSERT_FALSE(r0.heads.empty());
    const auto head = r0.heads[0];
    Candidate c;
    c.id = head;
    c.energy_fraction = 1.0;
    c.ti = 1.0;
    EXPECT_EQ(e.threshold(1, c), 0.0);  // same epoch: ineligible
}

TEST(Leach, ThresholdScalesWithEnergy) {
    LeachElection e({0.1, 0.5}, util::Rng(11));
    Candidate full, half;
    full.id = 0;
    full.energy_fraction = 1.0;
    full.ti = 1.0;
    half.id = 1;
    half.energy_fraction = 0.5;
    half.ti = 1.0;
    EXPECT_NEAR(e.threshold(0, half), e.threshold(0, full) * 0.5, 1e-12);
    Candidate dead = full;
    dead.id = 2;
    dead.energy_fraction = 0.0;
    EXPECT_EQ(e.threshold(0, dead), 0.0);
}

TEST(Leach, RotationSpreadsServiceOverEpochs) {
    LeachElection e({0.25, 0.5}, util::Rng(13));  // epoch = 4
    const auto pop = population(8);
    std::set<sim::ProcessId> served;
    for (std::uint32_t r = 0; r < 32; ++r) {
        for (auto h : e.run_round(r, pop).heads) served.insert(h);
    }
    // Over 32 rounds with rotation pressure most nodes should have served.
    EXPECT_GE(served.size(), 6u);
}

// LeachRounds reads each candidate's TI from the base-station archive: with
// the archive holding a record against nodes 0-9, none of them ever leads.
TEST(LeachRounds, DistrustedNodesNeverLead) {
    constexpr std::size_t kSide = 6, kNodes = kSide * kSide, kFaulty = 10;
    sim::Simulator sim;
    util::Rng rng(6);
    net::Channel channel(sim, rng.stream("channel"));
    const core::TrustParams trust;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    std::vector<std::unique_ptr<ClusterHead>> hosts;
    for (std::size_t i = 0; i < kNodes; ++i) {
        const auto id = static_cast<sim::ProcessId>(i);
        const util::Vec2 at{100.0 / kSide * (0.5 + static_cast<double>(i % kSide)),
                            100.0 / kSide * (0.5 + static_cast<double>(i / kSide))};
        nodes.push_back(std::make_unique<sensor::SensorNode>(
            sim, id, at, 20.0, net::Radio(channel, id),
            std::make_unique<sensor::CorrectBehavior>(sensor::FaultParams{}),
            rng.stream("node", i), trust));
        channel.attach(*nodes.back(), at, 400.0);
    }
    const auto bs_id = static_cast<sim::ProcessId>(2 * kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
        const auto id = static_cast<sim::ProcessId>(kNodes + i);
        hosts.push_back(std::make_unique<ClusterHead>(sim, id, net::Radio(channel, id),
                                                      core::EngineConfig{}));
        hosts.back()->set_base_station(bs_id);
        hosts.back()->set_active(false);
        channel.attach(*hosts.back(), nodes[i]->position(), 400.0);
    }
    BaseStation station(sim, bs_id, net::Radio(channel, bs_id), trust);
    channel.attach(station, {50.0, 120.0}, 400.0);
    for (core::NodeId f = 0; f < kFaulty; ++f) {
        for (int k = 0; k < 5; ++k) station.archive().judge_faulty(f);
    }
    ASSERT_LT(station.archive().ti(0), LeachParams{}.ti_threshold);

    LeachRounds rounds(sim, rng.stream("election"), {0.08}, 1.0, nodes, hosts, station);
    rounds.start(100.0, 1200.0);
    sim.run();
    ASSERT_EQ(rounds.rounds().size(), 12u);
    for (std::size_t r = 0; r < rounds.rounds().size(); ++r) {
        for (auto h : rounds.rounds()[r].heads) {
            EXPECT_GE(h, kFaulty) << "distrusted node " << h << " led round " << r;
        }
    }
}

TEST(Energy, TxRxCosts) {
    EnergyParams p;
    EXPECT_DOUBLE_EQ(rx_cost(p, 1000), 50e-9 * 1000);
    EXPECT_DOUBLE_EQ(tx_cost(p, 1000, 0.0), 50e-9 * 1000);
    EXPECT_GT(tx_cost(p, 1000, 100.0), tx_cost(p, 1000, 10.0));
    EXPECT_DOUBLE_EQ(tx_cost(p, 1000, 100.0), 50e-9 * 1000 + 100e-12 * 1000 * 10000);
}

TEST(Energy, BatteryDrainsAndClamps) {
    Battery b(1.0);
    EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
    EXPECT_TRUE(b.consume(0.4));
    EXPECT_NEAR(b.level(), 0.6, 1e-12);
    EXPECT_TRUE(b.consume(10.0));
    EXPECT_DOUBLE_EQ(b.level(), 0.0);
    EXPECT_TRUE(b.depleted());
    EXPECT_FALSE(b.consume(0.1));  // dead stays dead
}

}  // namespace
}  // namespace tibfit::cluster
