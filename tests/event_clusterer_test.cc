#include "core/event_clusterer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "obs/names.h"
#include "obs/recorder.h"
#include "util/rng.h"

namespace tibfit::core {
namespace {

std::vector<util::Vec2> around(const util::Vec2& c, std::initializer_list<util::Vec2> offsets) {
    std::vector<util::Vec2> out;
    for (const auto& o : offsets) out.push_back(c + o);
    return out;
}

TEST(EventClusterer, RejectsBadConstruction) {
    EXPECT_THROW(EventClusterer(0.0), std::invalid_argument);
    EXPECT_THROW(EventClusterer(-1.0), std::invalid_argument);
    EXPECT_THROW(EventClusterer(5.0, 0), std::invalid_argument);
}

TEST(EventClusterer, EmptyInput) {
    EventClusterer c(5.0);
    EXPECT_TRUE(c.cluster({}).empty());
}

TEST(EventClusterer, SinglePoint) {
    EventClusterer c(5.0);
    const std::vector<util::Vec2> pts{{3.0, 4.0}};
    const auto clusters = c.cluster(pts);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].cg, pts[0]);
    EXPECT_EQ(clusters[0].members, std::vector<std::size_t>{0});
}

TEST(EventClusterer, TightGroupIsOneCluster) {
    EventClusterer c(5.0);
    const auto pts = around({50, 50}, {{0, 0}, {1, 0}, {0, 1}, {-1, -1}, {2, 2}});
    const auto clusters = c.cluster(pts);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].members.size(), pts.size());
    EXPECT_NEAR(util::distance(clusters[0].cg, {50.4, 50.4}), 0.0, 1e-9);
}

TEST(EventClusterer, TwoWellSeparatedGroups) {
    EventClusterer c(5.0);
    auto pts = around({20, 20}, {{0, 0}, {1, 1}, {-1, 0}});
    const auto more = around({80, 80}, {{0, 0}, {0, 1}});
    pts.insert(pts.end(), more.begin(), more.end());
    const auto clusters = c.cluster(pts);
    ASSERT_EQ(clusters.size(), 2u);
    std::size_t total = 0;
    for (const auto& cl : clusters) total += cl.members.size();
    EXPECT_EQ(total, pts.size());
}

TEST(EventClusterer, ThreeGroups) {
    EventClusterer c(5.0);
    std::vector<util::Vec2> pts;
    for (const auto& centre : {util::Vec2{10, 10}, util::Vec2{50, 50}, util::Vec2{90, 10}}) {
        const auto g = around(centre, {{0, 0}, {1, 0}, {0, 1}});
        pts.insert(pts.end(), g.begin(), g.end());
    }
    EXPECT_EQ(c.cluster(pts).size(), 3u);
}

TEST(EventClusterer, OutlierFormsOwnCluster) {
    EventClusterer c(5.0);
    auto pts = around({30, 30}, {{0, 0}, {1, 0}, {0, 1}, {1, 1}});
    pts.push_back({30, 45});  // 15 units away: its own "event"
    const auto clusters = c.cluster(pts);
    ASSERT_EQ(clusters.size(), 2u);
    const auto singleton = std::find_if(clusters.begin(), clusters.end(),
                                        [](const auto& cl) { return cl.members.size() == 1; });
    ASSERT_NE(singleton, clusters.end());
    EXPECT_EQ(singleton->members[0], 4u);
}

TEST(EventClusterer, EveryPointInExactlyOneCluster) {
    EventClusterer c(5.0);
    util::Rng rng(99);
    std::vector<util::Vec2> pts;
    for (int i = 0; i < 60; ++i) pts.push_back(rng.point_in_rect(100, 100));
    const auto clusters = c.cluster(pts);
    std::set<std::size_t> seen;
    for (const auto& cl : clusters) {
        for (std::size_t m : cl.members) {
            EXPECT_TRUE(seen.insert(m).second) << "point in two clusters";
        }
        EXPECT_FALSE(cl.members.empty());
    }
    EXPECT_EQ(seen.size(), pts.size());
}

TEST(EventClusterer, MembersAssignedToNearestCg) {
    EventClusterer c(5.0);
    util::Rng rng(7);
    std::vector<util::Vec2> pts;
    for (int i = 0; i < 40; ++i) pts.push_back(rng.point_in_rect(100, 100));
    const auto clusters = c.cluster(pts);
    for (std::size_t a = 0; a < clusters.size(); ++a) {
        for (std::size_t m : clusters[a].members) {
            const double own = util::distance(pts[m], clusters[a].cg);
            for (std::size_t b = 0; b < clusters.size(); ++b) {
                EXPECT_LE(own, util::distance(pts[m], clusters[b].cg) + 1e-9);
            }
        }
    }
}

TEST(EventClusterer, CgIsMemberCentroid) {
    EventClusterer c(5.0);
    util::Rng rng(13);
    std::vector<util::Vec2> pts;
    for (int i = 0; i < 30; ++i) pts.push_back(rng.point_in_rect(50, 50));
    for (const auto& cl : c.cluster(pts)) {
        util::Vec2 sum;
        for (std::size_t m : cl.members) sum += pts[m];
        const util::Vec2 cg = sum / static_cast<double>(cl.members.size());
        EXPECT_NEAR(cg.x, cl.cg.x, 1e-9);
        EXPECT_NEAR(cg.y, cl.cg.y, 1e-9);
    }
}

TEST(EventClusterer, Deterministic) {
    EventClusterer c(5.0);
    util::Rng rng(31);
    std::vector<util::Vec2> pts;
    for (int i = 0; i < 50; ++i) pts.push_back(rng.point_in_rect(100, 100));
    const auto a = c.cluster(pts);
    const auto b = c.cluster(pts);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].members, b[i].members);
        EXPECT_EQ(a[i].cg, b[i].cg);
    }
}

// Paper's separation requirement: two events farther than r_error apart
// should yield distinct clusters when reports are tight around each.
class ClustererSeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClustererSeparationSweep, SeparatedEventsSplit) {
    const double r_error = 5.0;
    const double separation = GetParam();
    EventClusterer c(r_error);
    util::Rng rng(101);
    std::vector<util::Vec2> pts;
    const util::Vec2 a{40, 40};
    const util::Vec2 b = a + util::Vec2{separation, 0};
    for (int i = 0; i < 8; ++i) pts.push_back(a + rng.gaussian_offset(0.5));
    for (int i = 0; i < 8; ++i) pts.push_back(b + rng.gaussian_offset(0.5));
    const auto clusters = c.cluster(pts);
    if (separation > 4.0 * r_error) {
        EXPECT_EQ(clusters.size(), 2u);
    } else {
        EXPECT_GE(clusters.size(), 1u);  // close events may legitimately merge
    }
}

INSTANTIATE_TEST_SUITE_P(Separations, ClustererSeparationSweep,
                         ::testing::Values(6.0, 12.0, 20.0, 30.0, 60.0));

// Stress: clusterer always terminates and partitions, for many seeds.
class ClustererFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ClustererFuzz, TerminatesAndPartitions) {
    EventClusterer c(5.0);
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<util::Vec2> pts;
    const int n = 1 + static_cast<int>(rng.uniform_index(80));
    for (int i = 0; i < n; ++i) pts.push_back(rng.point_in_rect(100, 100));
    const auto clusters = c.cluster(pts);
    std::size_t total = 0;
    for (const auto& cl : clusters) total += cl.members.size();
    EXPECT_EQ(total, pts.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClustererFuzz, ::testing::Range(1, 21));

TEST(EventClusterer, ReusedClustererMatchesFresh) {
    // One clusterer and one output vector per round cap, fed a seeded
    // sequence of inputs that grow and shrink (empty and single-point ones
    // included), must match a fresh clusterer per input bit for bit, also
    // right after its scratch was released. The cap-1 clusterer also takes
    // the truncation path, which must fire for the same inputs.
    const std::vector<util::Vec2> needs_two_rounds = {{0.0, 0.0}, {5.2, 0.0}, {2.6, 4.0}};
    util::Rng rng(1723);
    for (std::size_t max_rounds : {EventClusterer::kDefaultMaxRounds, std::size_t{1}}) {
        SCOPED_TRACE(max_rounds);
        obs::Recorder reused_rec, fresh_rec;
        EventClusterer reused(5.0, max_rounds);
        reused.set_recorder(&reused_rec);
        std::vector<EventCluster> out;
        for (int input = 0; input < 200; ++input) {
            SCOPED_TRACE(input);
            std::vector<util::Vec2> pts;
            if (input % 7 == 3) {
                pts = needs_two_rounds;
            } else {
                const std::size_t n = rng.uniform_index(input % 5 == 0 ? 3 : 60);
                const double side = rng.uniform(10.0, 80.0);
                for (std::size_t i = 0; i < n; ++i) pts.push_back(rng.point_in_rect(side, side));
            }
            if (input % 50 == 49) reused.release_scratch();
            reused.cluster(pts, out);
            EventClusterer fresh(5.0, max_rounds);
            fresh.set_recorder(&fresh_rec);
            const auto want = std::as_const(fresh).cluster(pts);
            ASSERT_EQ(out.size(), want.size());
            for (std::size_t c = 0; c < out.size(); ++c) {
                EXPECT_EQ(out[c].cg.x, want[c].cg.x);
                EXPECT_EQ(out[c].cg.y, want[c].cg.y);
                EXPECT_EQ(out[c].members, want[c].members);
            }
        }
        const auto hits = [](obs::Recorder& rec) {
            return rec.metrics().counter(obs::metric::kClustererRoundCapHits).value();
        };
        EXPECT_EQ(hits(reused_rec), hits(fresh_rec));
        if (max_rounds == 1) {
            EXPECT_GT(hits(reused_rec), 0u);
        }
    }
}

}  // namespace
}  // namespace tibfit::core
