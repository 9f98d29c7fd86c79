#include "core/collusion_detector.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/decision_engine.h"
#include "util/rng.h"

namespace tibfit::core {
namespace {

EventReport report(NodeId n, util::Vec2 loc) {
    EventReport r;
    r.reporter = n;
    r.time = 0.0;
    r.location = loc;
    return r;
}

/// A window where nodes 0-2 echo one shared location and 3-5 report
/// honestly scattered.
std::vector<EventReport> colluding_window(util::Rng& rng, const util::Vec2& shared) {
    std::vector<EventReport> out;
    for (NodeId n = 0; n < 3; ++n) out.push_back(report(n, shared));
    for (NodeId n = 3; n < 6; ++n) {
        out.push_back(report(n, util::Vec2{50, 50} + rng.gaussian_offset(1.6)));
    }
    return out;
}

TEST(CollusionDetector, IdenticalTripleSuspected) {
    CollusionDetector d;
    util::Rng rng(1);
    const auto f = d.inspect(colluding_window(rng, {50, 50}));
    EXPECT_EQ(f.suspects, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_TRUE(f.convicted.empty());  // first offence: suspicion only
    EXPECT_EQ(d.pair_count(0, 1), 1u);
    EXPECT_EQ(d.pair_count(0, 3), 0u);
}

TEST(CollusionDetector, ConvictionAfterRepeatedOffences) {
    CollusionDetector d;  // conviction_count = 3
    util::Rng rng(2);
    for (int i = 0; i < 2; ++i) {
        const auto f = d.inspect(colluding_window(rng, {50.0 + i, 50.0}));
        EXPECT_TRUE(f.convicted.empty());
    }
    const auto f = d.inspect(colluding_window(rng, {52, 50}));
    EXPECT_EQ(f.convicted, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_TRUE(d.convicted(0));
    EXPECT_TRUE(d.convicted(2));
    EXPECT_FALSE(d.convicted(3));
    EXPECT_EQ(d.node_count(0), 3u);
    EXPECT_EQ(d.pair_count(0, 1), 3u);  // forensics: who lied with whom
    EXPECT_EQ(d.convicted_nodes(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(CollusionDetector, HonestScatterNotSuspected) {
    CollusionDetector d;
    util::Rng rng(3);
    for (int w = 0; w < 50; ++w) {
        std::vector<EventReport> window;
        for (NodeId n = 0; n < 10; ++n) {
            window.push_back(report(n, util::Vec2{50, 50} + rng.gaussian_offset(1.6)));
        }
        const auto f = d.inspect(window);
        // Pairs may rarely coincide, but cliques of >= 3 honest sigma-1.6
        // reports within 0.5 units essentially never form.
        EXPECT_TRUE(f.convicted.empty()) << "window " << w;
    }
}

TEST(CollusionDetector, PairOfTwoNotEnough) {
    CollusionDetectorParams p;
    p.min_clique = 3;
    CollusionDetector d(p);
    for (int i = 0; i < 10; ++i) {
        const std::vector<EventReport> window{report(0, {10, 10}), report(1, {10, 10})};
        const auto f = d.inspect(window);
        EXPECT_TRUE(f.suspects.empty());
    }
    EXPECT_EQ(d.pair_count(0, 1), 0u);
}

TEST(CollusionDetector, DuplicateReportsFromOneNodeIgnored) {
    CollusionDetector d;
    // One node repeating itself is not a clique of three distinct nodes.
    const std::vector<EventReport> window{report(0, {10, 10}), report(0, {10, 10}),
                                          report(0, {10, 10}), report(1, {10, 10})};
    const auto f = d.inspect(window);
    EXPECT_TRUE(f.suspects.empty());
}

TEST(CollusionDetector, FindingsDoNotDependOnReportOrder) {
    // inspect() walks its components in hash order; the counters, suspect
    // and conviction sets it builds from that walk must not notice. Each
    // window holds three cliques (one of them a mere pair) over rotating
    // members plus honest scatter, so every window has several
    // components and the first permutation already convicts.
    const NodeId n_nodes = 24;
    util::Rng rng(17);
    std::vector<std::vector<EventReport>> windows;
    for (NodeId w = 0; w < 8; ++w) {
        std::vector<EventReport> window;
        const util::Vec2 spots[3] = {{10.0 + w, 10.0}, {40.0, 10.0 + w}, {25.0, 40.0}};
        const std::size_t sizes[3] = {4, 3, 2};
        NodeId next = (w * 5) % n_nodes;
        for (int c = 0; c < 3; ++c) {
            for (std::size_t k = 0; k < sizes[c]; ++k) {
                window.push_back(report(next, spots[c]));
                next = (next + 1) % n_nodes;
            }
        }
        for (std::size_t k = window.size(); k < 16; ++k) {
            window.push_back(report(next, util::Vec2{25, 25} + rng.gaussian_offset(3.0)));
            next = (next + 1) % n_nodes;
        }
        windows.push_back(std::move(window));
    }

    struct Outcome {
        std::vector<CollusionFinding> findings;
        std::vector<std::uint32_t> node_counts;
        std::vector<std::uint32_t> pair_counts;
        std::vector<NodeId> convicted;
    };
    const auto run = [&](std::uint64_t order) {
        CollusionDetector d;
        Outcome out;
        util::Rng shuffle_rng(order);
        for (auto window : windows) {
            if (order == 1) std::reverse(window.begin(), window.end());
            if (order > 1) std::shuffle(window.begin(), window.end(), shuffle_rng);
            out.findings.push_back(d.inspect(window));
        }
        for (NodeId a = 0; a < n_nodes; ++a) {
            out.node_counts.push_back(d.node_count(a));
            for (NodeId b = a + 1; b < n_nodes; ++b) out.pair_counts.push_back(d.pair_count(a, b));
        }
        out.convicted = d.convicted_nodes();
        return out;
    };

    const Outcome given = run(0);
    EXPECT_FALSE(given.convicted.empty());
    for (std::uint64_t order = 1; order < 8; ++order) {
        const Outcome permuted = run(order);
        for (std::size_t w = 0; w < windows.size(); ++w) {
            EXPECT_EQ(permuted.findings[w].suspects, given.findings[w].suspects)
                << "order " << order << " window " << w;
            EXPECT_EQ(permuted.findings[w].convicted, given.findings[w].convicted)
                << "order " << order << " window " << w;
        }
        EXPECT_EQ(permuted.node_counts, given.node_counts) << "order " << order;
        EXPECT_EQ(permuted.pair_counts, given.pair_counts) << "order " << order;
        EXPECT_EQ(permuted.convicted, given.convicted) << "order " << order;
    }
}

TEST(CollusionDetector, PenalizeQuarantinesConvicts) {
    TrustParams p;
    p.removal_ti = 0.05;
    TrustManager tm(p);
    CollusionFinding f;
    f.convicted = {4, 7};
    CollusionDetector::penalize(f, tm);
    EXPECT_TRUE(tm.is_isolated(4));
    EXPECT_TRUE(tm.is_isolated(7));
    EXPECT_FALSE(tm.is_isolated(5));
    EXPECT_DOUBLE_EQ(tm.v(5), 0.0);
}

TEST(TrustManagerQuarantine, NeverRaisesTrust) {
    TrustParams p;
    p.removal_ti = 0.5;
    TrustManager tm(p);
    for (int i = 0; i < 50; ++i) tm.judge_faulty(1);  // already far below
    const double v_before = tm.v(1);
    tm.quarantine(1);
    EXPECT_DOUBLE_EQ(tm.v(1), v_before);  // quarantine never helps a node
}

TEST(TrustManagerQuarantine, WorksWithIsolationDisabled) {
    TrustParams p;
    p.removal_ti = 0.0;
    TrustManager tm(p);
    tm.quarantine(3);
    EXPECT_LT(tm.ti(3), 0.1);            // strong penalty applied
    EXPECT_FALSE(tm.is_isolated(3));     // but isolation stays off
}

TEST(CollusionDetector, EngineIntegrationConvictsAndIsolates) {
    EngineConfig cfg;
    cfg.collusion_defense = true;
    cfg.trust.removal_ti = 0.3;
    DecisionEngine e(cfg);

    // 9-node line; nodes 0-2 collude on the same fake spot repeatedly.
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 9; ++i) pos.push_back({static_cast<double>(3 * i), 0.0});
    util::Rng rng(5);
    for (int w = 0; w < 12; ++w) {
        std::vector<EventReport> window;
        for (NodeId n = 0; n < 3; ++n) window.push_back(report(n, {12.0, 0.5}));
        for (NodeId n = 3; n < 9; ++n) {
            window.push_back(report(n, util::Vec2{12, 0} + rng.gaussian_offset(1.0)));
        }
        e.decide_location(window, pos);
    }
    EXPECT_EQ(e.collusion_detector().convicted_nodes(), (std::vector<NodeId>{0, 1, 2}));
    // Repeated penalties drove the colluders below the removal threshold.
    EXPECT_TRUE(e.trust().is_isolated(0));
    EXPECT_TRUE(e.trust().is_isolated(1));
    EXPECT_TRUE(e.trust().is_isolated(2));
    EXPECT_FALSE(e.trust().is_isolated(5));
}

TEST(CollusionDetector, DisabledByDefaultInEngine) {
    EngineConfig cfg;  // collusion_defense defaults to false
    DecisionEngine e(cfg);
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 6; ++i) pos.push_back({static_cast<double>(3 * i), 0.0});
    for (int w = 0; w < 10; ++w) {
        std::vector<EventReport> window;
        for (NodeId n = 0; n < 3; ++n) window.push_back(report(n, {7, 0}));
        e.decide_location(window, pos);
    }
    EXPECT_TRUE(e.collusion_detector().convicted_nodes().empty());
}

}  // namespace
}  // namespace tibfit::core
