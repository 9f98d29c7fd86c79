#include "core/location_arbiter.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/baseline_voter.h"
#include "util/rng.h"

namespace tibfit::core {
namespace {

constexpr double kRs = 20.0;
constexpr double kRerr = 5.0;

TrustParams params() {
    TrustParams p;
    p.lambda = 0.25;
    p.fault_rate = 0.1;
    p.removal_ti = 0.05;
    return p;
}

EventReport report(NodeId n, util::Vec2 loc, double t = 0.0) {
    EventReport r;
    r.reporter = n;
    r.time = t;
    r.location = loc;
    return r;
}

/// 3x3 lattice with 10-unit spacing centred on (10, 10).
std::vector<util::Vec2> lattice() {
    std::vector<util::Vec2> p;
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            p.push_back({static_cast<double>(10 * x), static_cast<double>(10 * y)});
        }
    }
    return p;
}

TEST(LocationArbiter, RejectsBadSensingRadius) {
    TrustManager tm(params());
    EXPECT_THROW(LocationArbiter(tm, DecisionPolicy::TrustIndex, 0.0, kRerr),
                 std::invalid_argument);
}

TEST(LocationArbiter, UnanimousReportsDeclareEventAtCg) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    // Event at (10, 10): every node is within r_s. All report near it.
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 9; ++n) reports.push_back(report(n, {10.0 + 0.1 * n, 10.0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].event_declared);
    EXPECT_NEAR(decisions[0].location.x, 10.4, 1e-9);
    EXPECT_EQ(decisions[0].reporters.size(), 9u);
    EXPECT_TRUE(decisions[0].silent.empty());
}

TEST(LocationArbiter, LoneFabricatorLosesToSilentNeighbours) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const std::vector<EventReport> reports{report(4, {10, 10})};  // centre node lies
    const auto decisions = arb.decide(reports, pos, true);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);  // 1 TI vs 8 silent TI
    EXPECT_GT(tm.v(4), 0.0);                    // fabricator penalized
    EXPECT_DOUBLE_EQ(tm.v(0), 0.0);             // silent neighbours rewarded (floor)
}

TEST(LocationArbiter, FarReporterThrownOutAndPenalized) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    // One node very far from the claimed location.
    std::vector<util::Vec2> pos = lattice();
    pos.push_back({200, 200});  // node 9
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 9; ++n) reports.push_back(report(n, {10, 10}));
    reports.push_back(report(9, {10.2, 10.0}));  // claims the same event from 260 units away
    const auto decisions = arb.decide(reports, pos, true);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].event_declared);
    ASSERT_EQ(decisions[0].thrown_out.size(), 1u);
    EXPECT_EQ(decisions[0].thrown_out[0], 9u);
    EXPECT_GT(tm.v(9), 0.0);  // false alarm from implausible position
}

TEST(LocationArbiter, DuplicateReportsKeepEarliest) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const std::vector<EventReport> reports{
        report(4, {10, 10}, 0.0),
        report(4, {90, 90}, 0.5),  // duplicate from the same node: ignored
    };
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_NEAR(decisions[0].location.x, 10.0, 1e-9);
}

TEST(LocationArbiter, ReportWithoutLocationIgnored) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    EventReport r;
    r.reporter = 0;
    r.time = 0.0;  // no location set
    const auto decisions = arb.decide(std::vector<EventReport>{r}, pos, false);
    EXPECT_TRUE(decisions.empty());
}

TEST(LocationArbiter, UnknownReporterIgnored) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(42, {10, 10})}, pos, false);
    EXPECT_TRUE(decisions.empty());
}

TEST(LocationArbiter, TwoConcurrentEventsBothDecided) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 4; ++i) pos.push_back({static_cast<double>(5 * i), 0.0});
    for (int i = 0; i < 4; ++i) pos.push_back({100.0 + 5 * i, 0.0});
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 4; ++n) reports.push_back(report(n, {7, 0}));
    for (NodeId n = 4; n < 8; ++n) reports.push_back(report(n, {107, 0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_TRUE(decisions[0].event_declared);
    EXPECT_TRUE(decisions[1].event_declared);
}

TEST(LocationArbiter, DistrustedMajorityLosesToTrustedMinority) {
    TrustManager tm(params());
    // Nodes 0-5 heavily distrusted.
    for (NodeId n = 0; n < 6; ++n) {
        for (int k = 0; k < 12; ++k) tm.judge_faulty(n);
    }
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 9; ++i) pos.push_back({static_cast<double>(2 * i), 0.0});
    // The six distrusted nodes fabricate an event; 3 trusted stay silent.
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 6; ++n) reports.push_back(report(n, {8, 0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);
}

TEST(LocationArbiter, BaselineAcceptsWhatTrustRejects) {
    TrustManager tm(params());
    for (NodeId n = 0; n < 6; ++n) {
        for (int k = 0; k < 12; ++k) tm.judge_faulty(n);
    }
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 9; ++i) pos.push_back({static_cast<double>(2 * i), 0.0});
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 6; ++n) reports.push_back(report(n, {8, 0}));

    const auto baseline = majority_vote_location(reports, pos, kRs, kRerr);
    ASSERT_EQ(baseline.size(), 1u);
    EXPECT_TRUE(baseline[0].event_declared);  // 6 vs 3 by headcount
}

TEST(LocationArbiter, IsolatedNodesInvisible) {
    auto p = params();
    p.removal_ti = 0.5;
    TrustManager tm(p);
    for (int k = 0; k < 6; ++k) tm.judge_faulty(4);
    ASSERT_TRUE(tm.is_isolated(4));
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    // An isolated node has been removed from the network (Section 3.1):
    // its report is discarded before clustering, so no candidate event
    // even forms.
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(4, {10, 10})}, pos, false);
    EXPECT_TRUE(decisions.empty());

    // A mixed window still decides, with the isolated node invisible.
    const auto mixed = arb.decide(
        std::vector<EventReport>{report(4, {10, 10}), report(0, {10.2, 10.1})}, pos, false);
    ASSERT_EQ(mixed.size(), 1u);
    ASSERT_EQ(mixed[0].reporters.size(), 1u);
    EXPECT_EQ(mixed[0].reporters[0], 0u);
}

TEST(LocationArbiter, TrustWeightedLocationIgnoresDistrustedDrag) {
    TrustManager tm(params());
    // Node 3 is heavily distrusted (but not isolated).
    for (int k = 0; k < 8; ++k) tm.judge_faulty(3);
    ASSERT_LT(tm.ti(3), 0.2);
    ASSERT_FALSE(tm.is_isolated(3));

    LocationArbiter plain(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    LocationArbiter weighted(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    weighted.set_trust_weighted_location(true);

    const auto pos = lattice();
    // Three trusted nodes agree on (10, 10); the distrusted node reports
    // 4 units off, dragging a plain centroid by a full unit.
    const std::vector<EventReport> reports{
        report(0, {10, 10}), report(1, {10, 10}), report(2, {10, 10}),
        report(3, {14, 10}),
    };
    const auto p = plain.decide(reports, pos, false);
    const auto w = weighted.decide(reports, pos, false);
    ASSERT_EQ(p.size(), 1u);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_NEAR(p[0].location.x, 11.0, 1e-9);   // plain centroid dragged
    EXPECT_LT(w[0].location.x, 10.25);          // weighted estimate barely moves
}

TEST(LocationArbiter, TrustWeightedFallsBackWhenWeightVanishes) {
    // All-distrusted cluster: total weight ~ 0 -> plain cg retained, no NaN.
    auto pr = params();
    pr.removal_ti = 0.0;  // keep them un-isolated
    TrustManager tm(pr);
    for (NodeId n = 0; n < 2; ++n) {
        for (int k = 0; k < 400; ++k) tm.judge_faulty(n);
    }
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    arb.set_trust_weighted_location(true);
    const auto pos = lattice();
    const std::vector<EventReport> reports{report(0, {10, 10}), report(1, {12, 10})};
    const auto d = arb.decide(reports, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_NEAR(d[0].location.x, 11.0, 1e-9);
    EXPECT_FALSE(std::isnan(d[0].location.y));
}

TEST(LocationArbiter, NoReportersMeansNoEvent) {
    // A cluster whose every reporter is isolated/thrown out cannot declare.
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos{{200, 200}};  // only node is far away
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(0, {10, 10})}, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);
    EXPECT_EQ(decisions[0].thrown_out.size(), 1u);
}

/// LocationArbiter::decide as it was before its reusable mask and buffers:
/// hash sets for the dedupe and for each cluster's reporters, fresh
/// vectors throughout. Kept as the differential reference.
std::vector<LocationDecision> hash_set_decide(TrustManager& trust, DecisionPolicy policy,
                                              bool weighted_location,
                                              std::span<const EventReport> reports,
                                              std::span<const util::Vec2> node_positions) {
    const bool stateful = policy == DecisionPolicy::TrustIndex;
    std::vector<std::size_t> kept;
    {
        std::unordered_set<NodeId> seen;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            if (!reports[i].has_location()) continue;
            if (reports[i].reporter >= node_positions.size()) continue;
            if (stateful && trust.is_isolated(reports[i].reporter)) continue;
            if (seen.insert(reports[i].reporter).second) kept.push_back(i);
        }
    }
    std::vector<util::Vec2> locations;
    for (std::size_t i : kept) locations.push_back(*reports[i].location);
    const auto clusters = EventClusterer(kRerr).cluster(locations);

    const double plaus = kRs + kRerr;
    const double rs2 = kRs * kRs;
    const double plaus2 = plaus * plaus;
    std::vector<LocationDecision> out;
    for (const auto& cl : clusters) {
        LocationDecision d;
        d.location = cl.cg;
        if (weighted_location && stateful) {
            util::Vec2 sum;
            double total = 0.0;
            for (std::size_t m : cl.members) {
                const auto& r = reports[kept[m]];
                const double w = trust.ti(r.reporter);
                sum += *r.location * w;
                total += w;
            }
            if (total > 1e-9) d.location = sum / total;
        }
        std::unordered_set<NodeId> cluster_reporters;
        for (std::size_t m : cl.members) cluster_reporters.insert(reports[kept[m]].reporter);
        for (NodeId n = 0; n < node_positions.size(); ++n) {
            if (stateful && trust.is_isolated(n)) continue;
            const double d2 = util::distance2(node_positions[n], d.location);
            if (cluster_reporters.count(n) != 0) {
                if (d2 <= plaus2) {
                    d.reporters.push_back(n);
                    d.weight_reporters += stateful ? trust.ti(n) : 1.0;
                } else {
                    d.thrown_out.push_back(n);
                }
            } else if (d2 <= rs2) {
                d.silent.push_back(n);
                d.weight_silent += stateful ? trust.ti(n) : 1.0;
            }
        }
        d.event_declared = !d.reporters.empty() && d.weight_reporters >= d.weight_silent;
        if (stateful) {
            const auto& winners = d.event_declared ? d.reporters : d.silent;
            const auto& losers = d.event_declared ? d.silent : d.reporters;
            for (NodeId n : winners) trust.judge_correct(n);
            for (NodeId n : losers) trust.judge_faulty(n);
            for (NodeId n : d.thrown_out) trust.judge_faulty(n);
        }
        out.push_back(std::move(d));
    }
    return out;
}

TEST(LocationArbiter, MatchesHashSetReference) {
    // Seeded differential run over one reused arbiter per configuration
    // (TIBFIT plain, TIBFIT trust-weighted, majority), each with trust
    // updates on so nodes get isolated. Every window draws a topology of
    // varying size (non-members parked at the CH's "nowhere" position,
    // nodes moved between windows), duplicate reporters, reporters at or
    // past the topology's end and reports without a location.
    constexpr util::Vec2 kNowhere{1e9, 1e9};
    auto p = params();
    p.removal_ti = 0.3;
    struct Config {
        DecisionPolicy policy;
        bool weighted;
        TrustManager trust;
        TrustManager ref_trust;
    };
    std::vector<Config> configs;
    for (const auto& [policy, weighted] :
         {std::pair{DecisionPolicy::TrustIndex, false}, std::pair{DecisionPolicy::TrustIndex, true},
          std::pair{DecisionPolicy::MajorityVote, false}}) {
        configs.push_back({policy, weighted, TrustManager(p), TrustManager(p)});
    }
    std::vector<LocationArbiter> arbiters;
    for (Config& c : configs) {
        arbiters.emplace_back(c.trust, c.policy, kRs, kRerr);
        arbiters.back().set_trust_weighted_location(c.weighted);
    }

    util::Rng rng(1707);
    std::vector<util::Vec2> pos;
    std::size_t isolated_seen = 0, thrown_out_seen = 0, multi_cluster_seen = 0;
    for (int window = 0; window < 300; ++window) {
        SCOPED_TRACE(window);
        // Topology: grows, shrinks and moves; some nodes are non-members.
        pos.resize(1 + rng.uniform_index(40));
        for (auto& q : pos) {
            q = rng.uniform() < 0.1 ? kNowhere : rng.point_in_rect(60, 60);
        }
        const std::size_t n_events = 1 + rng.uniform_index(3);
        std::vector<util::Vec2> events;
        for (std::size_t e = 0; e < n_events; ++e) events.push_back(rng.point_in_rect(60, 60));
        std::vector<EventReport> reports(rng.uniform_index(30));
        for (auto& r : reports) {
            r.reporter = static_cast<NodeId>(rng.uniform_index(pos.size() + 4));
            r.time = rng.uniform();
            const double u = rng.uniform();
            if (u < 0.05) continue;  // no location
            const util::Vec2 at = u < 0.15 ? rng.point_in_rect(60, 60)
                                           : events[rng.uniform_index(n_events)];
            r.location = at + util::Vec2{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
        }

        for (std::size_t k = 0; k < configs.size(); ++k) {
            Config& c = configs[k];
            for (NodeId n = 0; n < pos.size(); ++n) isolated_seen += c.trust.is_isolated(n);
            const auto want =
                hash_set_decide(c.ref_trust, c.policy, c.weighted, reports, pos);
            const auto got = arbiters[k].decide(reports, pos, true);
            ASSERT_EQ(got.size(), want.size());
            multi_cluster_seen += got.size() > 1;
            for (std::size_t i = 0; i < got.size(); ++i) {
                // Bit-equal: both sum the same TIs in ascending id order.
                EXPECT_EQ(got[i].location.x, want[i].location.x);
                EXPECT_EQ(got[i].location.y, want[i].location.y);
                EXPECT_EQ(got[i].weight_reporters, want[i].weight_reporters);
                EXPECT_EQ(got[i].weight_silent, want[i].weight_silent);
                EXPECT_EQ(got[i].event_declared, want[i].event_declared);
                EXPECT_EQ(got[i].reporters, want[i].reporters);
                EXPECT_EQ(got[i].silent, want[i].silent);
                EXPECT_EQ(got[i].thrown_out, want[i].thrown_out);
                thrown_out_seen += got[i].thrown_out.size();
            }
            EXPECT_EQ(c.trust.export_v(), c.ref_trust.export_v());
        }
    }
    EXPECT_GT(isolated_seen, 0u);
    EXPECT_GT(thrown_out_seen, 0u);
    EXPECT_GT(multi_cluster_seen, 0u);
}

TEST(LocationArbiter, ReusedArbiterForgetsPreviousReporters) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    std::vector<EventReport> all;
    for (NodeId n = 0; n < 9; ++n) all.push_back(report(n, {10, 10}));
    auto d = arb.decide(all, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters.size(), 9u);

    // One reporter now: every earlier one must be silent, not a reporter
    // or a duplicate to be dropped.
    d = arb.decide(std::vector<EventReport>{report(8, {10, 10})}, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters, (std::vector<NodeId>{8}));
    EXPECT_EQ(d[0].silent, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7}));

    // A smaller topology after a larger one, with the scratch released in
    // between: node 8 is gone, and its report is ignored rather than
    // remembered.
    arb.release_scratch();
    const std::vector<util::Vec2> small(pos.begin(), pos.begin() + 4);
    d = arb.decide(std::vector<EventReport>{report(8, {10, 10}), report(0, {10, 10})}, small,
                   false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters, (std::vector<NodeId>{0}));
    EXPECT_EQ(d[0].silent, (std::vector<NodeId>{1, 2, 3}));

    // Two clusters in one call, 20 units apart: each cluster's reporter is
    // a silent neighbour of the other, never a reporter into it.
    d = arb.decide(std::vector<EventReport>{report(0, {0, 0}), report(2, {20, 0})}, pos, false);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].reporters, (std::vector<NodeId>{0}));
    EXPECT_EQ(d[0].silent, (std::vector<NodeId>{1, 2, 3, 4, 6}));
    EXPECT_EQ(d[1].reporters, (std::vector<NodeId>{2}));
    EXPECT_EQ(d[1].silent, (std::vector<NodeId>{0, 1, 4, 5, 8}));
}

}  // namespace
}  // namespace tibfit::core
