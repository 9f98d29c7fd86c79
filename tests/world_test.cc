// exp::World's per-world trust-mirroring rule: nodes mirror their CH-side
// TI from decision broadcasts iff the population's fault level is smart
// (Level 1 or 2), the only behaviours that read the mirror. The rule is
// per world, so nodes that start correct and are compromised later mirror
// from t = 0 too.
#include <gtest/gtest.h>

#include <cstdint>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "exp/world.h"
#include "obs/recorder.h"

namespace tibfit::exp {
namespace {

/// A location world at 40% faulty with every node attached.
struct LocationWorld {
    explicit LocationWorld(sensor::NodeClass level)
        : scenario(Scenario::location_defaults()),
          world(scenario, Scenario::Kind::Location,
                {scenario.location.n_nodes, 0.4, level, scenario.deployment.sensing_radius}) {
        world.add_nodes(world.random_positions(), scenario.location.radio_range);
    }
    Scenario scenario;
    World world;
};

std::size_t count_mirroring(const World& w) {
    std::size_t n = 0;
    for (const auto& node : w.nodes) n += node->mirrors_trust() ? 1 : 0;
    return n;
}

TEST(WorldMirrorsTrust, SmartWorldsMirrorOnEveryNode) {
    for (const auto level : {sensor::NodeClass::Level1, sensor::NodeClass::Level2}) {
        LocationWorld lw(level);
        World& w = lw.world;
        ASSERT_EQ(w.nodes.size(), lw.scenario.location.n_nodes);
        std::size_t correct = 0;
        for (const auto& node : w.nodes) {
            correct += node->node_class() == sensor::NodeClass::Correct ? 1 : 0;
        }
        // Nodes outside the initially faulty prefix mirror too.
        EXPECT_EQ(correct, 60u);
        EXPECT_EQ(count_mirroring(w), w.nodes.size());

        // A compromise onset installs the smart behaviour on nodes that
        // have mirrored since t = 0; it never changes the flag.
        w.raise_compromised(1.0);
        for (const auto& node : w.nodes) EXPECT_EQ(node->node_class(), level);
        EXPECT_EQ(count_mirroring(w), w.nodes.size());
    }
}

TEST(WorldMirrorsTrust, BinaryAndLevel0WorldsDoNotMirror) {
    LocationWorld lw(sensor::NodeClass::Level0);
    EXPECT_EQ(count_mirroring(lw.world), 0u);
    lw.world.raise_compromised(1.0);
    EXPECT_EQ(count_mirroring(lw.world), 0u);

    const Scenario s = Scenario::binary_defaults();
    World w(s, Scenario::Kind::Binary,
            {s.binary.n_nodes, 0.5, sensor::NodeClass::Level0, s.deployment.field});
    w.add_nodes(w.random_positions(), s.deployment.field);
    ASSERT_EQ(w.nodes.size(), s.binary.n_nodes);
    EXPECT_EQ(count_mirroring(w), 0u);
}

std::uint64_t events_executed(const obs::Recorder& rec) {
    const obs::Counter* c = rec.metrics().find_counter("sim.events_executed");
    return c ? c->value() : 0;
}

// Exact work counts for two small pinned runs. A smart world schedules
// every decision copy that names a node, exactly as before mirroring was
// per world; a Level-0 binary world schedules none of them. Either count
// moves if the rule drifts in either direction.
TEST(WorldMirrorsTrust, PinnedEventCounts) {
    obs::Recorder smart_rec;
    Scenario smart = Scenario::location_defaults();
    smart.seed = 22;
    smart.location.events = 30;
    smart.location.pct_faulty = 0.4;
    smart.location.fault_level = sensor::NodeClass::Level1;
    smart.recorder = &smart_rec;
    run_location_experiment(smart);
    EXPECT_EQ(events_executed(smart_rec), 1546u);  // unchanged by the rule

    obs::Recorder binary_rec;
    Scenario binary = Scenario::binary_defaults();
    binary.seed = 11;
    binary.binary.events = 40;
    binary.binary.pct_faulty = 0.5;
    binary.recorder = &binary_rec;
    run_binary_experiment(binary);
    EXPECT_EQ(events_executed(binary_rec), 370u);  // 770 while every node mirrored
}

}  // namespace
}  // namespace tibfit::exp
