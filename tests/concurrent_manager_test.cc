#include "core/concurrent_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/geometry.h"
#include "util/rng.h"

namespace tibfit::core {
namespace {

TEST(ConcurrentManager, RejectsBadConstruction) {
    EXPECT_THROW(ConcurrentEventManager(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(ConcurrentEventManager(5.0, 0.0), std::invalid_argument);
}

TEST(ConcurrentManager, FirstReportOpensCircle) {
    ConcurrentEventManager m(5.0, 1.0);
    EXPECT_TRUE(m.add_report(0.0, 0, {10, 10}));
    EXPECT_EQ(m.open_circles(), 1u);
    ASSERT_TRUE(m.next_deadline().has_value());
    EXPECT_DOUBLE_EQ(*m.next_deadline(), 1.0);
}

TEST(ConcurrentManager, NearbyReportJoinsExistingCircle) {
    ConcurrentEventManager m(5.0, 1.0);
    EXPECT_TRUE(m.add_report(0.0, 0, {10, 10}));
    EXPECT_FALSE(m.add_report(0.2, 1, {12, 11}));  // inside the circle
    EXPECT_EQ(m.open_circles(), 1u);
}

TEST(ConcurrentManager, FarReportOpensSecondCircle) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    EXPECT_TRUE(m.add_report(0.3, 1, {40, 40}));
    EXPECT_EQ(m.open_circles(), 2u);
}

TEST(ConcurrentManager, NotReadyBeforeDeadline) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    EXPECT_TRUE(m.collect_ready(0.5).empty());
    EXPECT_EQ(m.open_circles(), 1u);
}

TEST(ConcurrentManager, ReadyAtDeadline) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.4, 1, {11, 11});
    const auto groups = m.collect_ready(1.0);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (ReportGroup{0, 1}));
    EXPECT_TRUE(m.idle());
}

TEST(ConcurrentManager, IndependentCirclesReleaseIndependently) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.5, 1, {80, 80});
    auto g1 = m.collect_ready(1.0);  // only the first circle expired
    ASSERT_EQ(g1.size(), 1u);
    EXPECT_EQ(g1[0], (ReportGroup{0}));
    EXPECT_EQ(m.open_circles(), 1u);
    auto g2 = m.collect_ready(1.5);
    ASSERT_EQ(g2.size(), 1u);
    EXPECT_EQ(g2[0], (ReportGroup{1}));
    EXPECT_TRUE(m.idle());
}

TEST(ConcurrentManager, OverlappingCirclesWaitForAllDeadlines) {
    // Circles at (10,10) and (17,10) with r=5 overlap (centres 7 < 10).
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.8, 1, {17, 10});
    // First deadline passed, but the overlapping second has not: no release.
    EXPECT_TRUE(m.collect_ready(1.0).empty());
    // Both expired: the union releases as one group.
    const auto groups = m.collect_ready(1.8);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (ReportGroup{0, 1}));
}

TEST(ConcurrentManager, TransitiveOverlapChains) {
    // A-B overlap, B-C overlap, A-C do not: all three must go together.
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.3, 1, {18, 10});
    m.add_report(0.6, 2, {26, 10});
    EXPECT_TRUE(m.collect_ready(1.0).empty());
    EXPECT_TRUE(m.collect_ready(1.3).empty());
    const auto groups = m.collect_ready(1.6);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (ReportGroup{0, 1, 2}));
}

TEST(ConcurrentManager, SimultaneousDistantEventsSeparateGroups) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.0, 1, {90, 90});
    m.add_report(0.1, 2, {11, 10});
    m.add_report(0.1, 3, {89, 90});
    const auto groups = m.collect_ready(1.0);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0], (ReportGroup{0, 2}));
    EXPECT_EQ(groups[1], (ReportGroup{1, 3}));
}

TEST(ConcurrentManager, BoundaryReportJoinsFirstContainingCircle) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.0, 0, {10, 10});
    m.add_report(0.0, 1, {18, 10});
    // (14, 10) is within 5 of both centres; joins the first circle.
    EXPECT_FALSE(m.add_report(0.1, 2, {14, 10}));
    const auto groups = m.collect_ready(2.0);
    ASSERT_EQ(groups.size(), 1u);  // circles overlap -> one merged group
    EXPECT_EQ(groups[0], (ReportGroup{0, 2, 1}));
}

TEST(ConcurrentManager, NextDeadlineIsEarliest) {
    ConcurrentEventManager m(5.0, 1.0);
    m.add_report(0.5, 0, {10, 10});
    m.add_report(0.2, 1, {80, 80});
    ASSERT_TRUE(m.next_deadline().has_value());
    EXPECT_DOUBLE_EQ(*m.next_deadline(), 1.2);
    EXPECT_FALSE(ConcurrentEventManager(5.0, 1.0).next_deadline().has_value());
}

// The cached next_deadline() must always equal a brute-force minimum over
// the open circles (it is maintained incrementally by add_report and
// recomputed by collect_ready over whatever survives compaction).
TEST(ConcurrentManager, CachedNextDeadlineMatchesBruteForceUnderChurn) {
    ConcurrentEventManager m(5.0, 2.0);
    std::vector<double> open_deadlines;  // shadow model of the open circles

    auto check = [&] {
        if (open_deadlines.empty()) {
            EXPECT_FALSE(m.next_deadline().has_value());
        } else {
            ASSERT_TRUE(m.next_deadline().has_value());
            EXPECT_EQ(*m.next_deadline(),
                      *std::min_element(open_deadlines.begin(), open_deadlines.end()));
        }
        EXPECT_EQ(m.open_circles(), open_deadlines.size());
    };

    // Far-apart locations so every report opens its own circle with its own
    // deadline; interleave collection points that release prefixes.
    double now = 0.0;
    std::size_t idx = 0;
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 4; ++i) {
            now += 0.3;
            const double x = 100.0 * static_cast<double>(idx);
            ASSERT_TRUE(m.add_report(now, idx, {x, 0.0}));
            open_deadlines.push_back(now + 2.0);
            ++idx;
            check();
        }
        // Collect at a time that expires some-but-not-all circles.
        now += 1.2;
        m.collect_ready(now);
        std::erase_if(open_deadlines, [&](double d) { return d <= now; });
        check();
    }
    // Drain completely: the cache must go back to nullopt.
    now += 10.0;
    m.collect_ready(now);
    open_deadlines.clear();
    check();
    EXPECT_TRUE(m.idle());
}

TEST(ConcurrentManager, NextDeadlineUnchangedWhenReportJoinsCircle) {
    ConcurrentEventManager m(5.0, 1.0);
    ASSERT_TRUE(m.add_report(0.0, 0, {10.0, 10.0}));
    ASSERT_TRUE(m.next_deadline().has_value());
    const double before = *m.next_deadline();
    // Joining an existing circle starts no new timer.
    ASSERT_FALSE(m.add_report(0.5, 1, {11.0, 10.0}));
    ASSERT_TRUE(m.next_deadline().has_value());
    EXPECT_EQ(*m.next_deadline(), before);
}

TEST(ConcurrentManager, NextDeadlineSurvivesPartialReleaseOfOverlapComponent) {
    ConcurrentEventManager m(5.0, 1.0);
    // Two overlapping circles (deadlines 1.0 and 1.5) + one far circle
    // (deadline 2.0). At t=1.2 the overlap component is not fully expired,
    // so nothing releases; the cached minimum must still be 1.0.
    ASSERT_TRUE(m.add_report(0.0, 0, {0.0, 0.0}));
    ASSERT_TRUE(m.add_report(0.5, 1, {8.0, 0.0}));
    ASSERT_TRUE(m.add_report(1.0, 2, {100.0, 0.0}));
    EXPECT_EQ(m.collect_ready(1.2).size(), 0u);
    ASSERT_TRUE(m.next_deadline().has_value());
    EXPECT_EQ(*m.next_deadline(), 1.0);
    // At t=1.6 the overlap pair releases together; only the far circle
    // remains and the cache must recompute to its deadline.
    EXPECT_EQ(m.collect_ready(1.6).size(), 1u);
    ASSERT_TRUE(m.next_deadline().has_value());
    EXPECT_EQ(*m.next_deadline(), 2.0);
}

/// ConcurrentEventManager as it was before its early return, member
/// scratch and in-place compaction: fresh union-find, ready flags and
/// group table per call, and a rebuilt circle list. Kept as the
/// differential reference.
class RebuildingManager {
  public:
    RebuildingManager(double r_error, double t_out) : r_error_(r_error), t_out_(t_out) {}

    void add_report(double now, std::size_t report_index, const util::Vec2& loc) {
        for (auto& c : circles_) {
            if (c.circle.contains(loc)) {
                c.members.push_back(report_index);
                return;
            }
        }
        const double deadline = now + t_out_;
        circles_.push_back({util::Circle{loc, r_error_}, deadline, {report_index}});
        if (!next_deadline_ || deadline < *next_deadline_) next_deadline_ = deadline;
    }

    std::vector<ReportGroup> collect_ready(double now) {
        const std::size_t n = circles_.size();
        std::vector<ReportGroup> out;
        if (n == 0) return out;
        std::vector<std::size_t> parent(n);
        for (std::size_t i = 0; i < n; ++i) parent[i] = i;
        auto find = [&](std::size_t x) {
            while (parent[x] != x) x = parent[x] = parent[parent[x]];
            return x;
        };
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (util::circles_overlap(circles_[i].circle, circles_[j].circle)) {
                    parent[find(j)] = find(i);
                }
            }
        }
        std::vector<bool> component_ready(n, true);
        for (std::size_t i = 0; i < n; ++i) {
            if (circles_[i].deadline > now) component_ready[find(i)] = false;
        }
        std::vector<ReportGroup> group_of_root(n);
        std::vector<bool> released(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t r = find(i);
            if (!component_ready[r]) continue;
            auto& g = group_of_root[r];
            g.insert(g.end(), circles_[i].members.begin(), circles_[i].members.end());
            released[i] = true;
        }
        for (std::size_t r = 0; r < n; ++r) {
            if (!group_of_root[r].empty()) out.push_back(std::move(group_of_root[r]));
        }
        std::vector<Circle> rest;
        next_deadline_.reset();
        for (std::size_t i = 0; i < n; ++i) {
            if (released[i]) continue;
            if (!next_deadline_ || circles_[i].deadline < *next_deadline_) {
                next_deadline_ = circles_[i].deadline;
            }
            rest.push_back(std::move(circles_[i]));
        }
        circles_ = std::move(rest);
        return out;
    }

    std::optional<double> next_deadline() const { return next_deadline_; }
    std::size_t open_circles() const { return circles_.size(); }

  private:
    struct Circle {
        util::Circle circle;
        double deadline;
        std::vector<std::size_t> members;
    };
    double r_error_;
    double t_out_;
    std::vector<Circle> circles_;
    std::optional<double> next_deadline_;
};

TEST(ConcurrentManager, MatchesRebuildingReference) {
    // Seeded add/collect sequences on a crowded field, so overlap chains
    // (whose union-find root is not their first circle) are common.
    // Collections land before any deadline, exactly on one, and past
    // several; groups, their order, open circles and the cached deadline
    // must match the reference bit for bit.
    util::Rng rng(1717);
    std::size_t early_calls = 0, released = 0, multi_group_calls = 0;
    for (int seq = 0; seq < 60; ++seq) {
        SCOPED_TRACE(seq);
        const double t_out = rng.uniform(0.5, 2.0);
        ConcurrentEventManager m(5.0, t_out);
        RebuildingManager ref(5.0, t_out);
        double now = 0.0;
        std::size_t idx = 0;
        for (int step = 0; step < 80; ++step) {
            if (rng.uniform() < 0.6) {
                now += rng.exponential(4.0);
                const util::Vec2 loc = rng.point_in_rect(40, 40);
                m.add_report(now, idx, loc);
                ref.add_report(now, idx, loc);
                ++idx;
            } else {
                double at = now + rng.uniform(0.0, t_out);
                if (rng.uniform() < 0.3 && ref.next_deadline()) at = *ref.next_deadline();
                if (ref.next_deadline() && at < *ref.next_deadline()) ++early_calls;
                now = std::max(now, at);
                const auto want = ref.collect_ready(now);
                const auto got = m.collect_ready(now);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t g = 0; g < got.size(); ++g) EXPECT_EQ(got[g], want[g]);
                released += got.size();
                multi_group_calls += got.size() > 1;
            }
            ASSERT_EQ(m.open_circles(), ref.open_circles());
            ASSERT_EQ(m.next_deadline().has_value(), ref.next_deadline().has_value());
            if (ref.next_deadline()) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(*m.next_deadline()),
                          std::bit_cast<std::uint64_t>(*ref.next_deadline()));
            }
        }
    }
    EXPECT_GT(early_calls, 0u);
    EXPECT_GT(released, 0u);
    EXPECT_GT(multi_group_calls, 0u);
}

}  // namespace
}  // namespace tibfit::core
