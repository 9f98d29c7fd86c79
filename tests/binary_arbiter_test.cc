#include "core/binary_arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/baseline_voter.h"
#include "util/rng.h"

namespace tibfit::core {
namespace {

TrustParams params() {
    TrustParams p;
    p.lambda = 0.25;
    p.fault_rate = 0.1;
    p.removal_ti = 0.05;
    return p;
}

TEST(BinaryArbiter, FreshNodesReduceToMajority) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3, 4};

    auto d = arb.decide(all, std::vector<NodeId>{0, 1, 2}, false);
    EXPECT_TRUE(d.event_declared);
    EXPECT_DOUBLE_EQ(d.weight_reporters, 3.0);
    EXPECT_DOUBLE_EQ(d.weight_silent, 2.0);

    d = arb.decide(all, std::vector<NodeId>{0, 1}, false);
    EXPECT_FALSE(d.event_declared);
}

TEST(BinaryArbiter, TieGoesToReporters) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 1}, false);
    EXPECT_TRUE(d.event_declared);  // 2.0 vs 2.0 -> declare
}

TEST(BinaryArbiter, UpdatesRewardWinnersPenalizeLosers) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2};
    arb.decide(all, std::vector<NodeId>{0, 1}, true);  // R wins
    EXPECT_DOUBLE_EQ(tm.v(0), 0.0);  // rewarded (floored)
    EXPECT_DOUBLE_EQ(tm.v(1), 0.0);
    EXPECT_NEAR(tm.v(2), 0.9, 1e-12);  // penalized
}

TEST(BinaryArbiter, NoUpdatesWhenDisabled) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    arb.decide(std::vector<NodeId>{0, 1, 2}, std::vector<NodeId>{0, 1}, false);
    EXPECT_EQ(tm.tracked(), 0u);
}

TEST(BinaryArbiter, SmallTrustedGroupBeatsLargeDistrusted) {
    // The paper's headline: reliable minority outvotes unreliable majority.
    TrustManager tm(params());
    for (int i = 0; i < 10; ++i) {
        tm.judge_faulty(2);
        tm.judge_faulty(3);
        tm.judge_faulty(4);
    }
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3, 4};
    // The three distrusted nodes fabricate; the two trusted stay silent.
    const auto d = arb.decide(all, std::vector<NodeId>{2, 3, 4}, false);
    EXPECT_FALSE(d.event_declared);
    EXPECT_LT(d.weight_reporters, d.weight_silent);
}

TEST(BinaryArbiter, IsolatedNodesExcludedFromVote) {
    auto p = params();
    p.removal_ti = 0.5;
    TrustManager tm(p);
    for (int i = 0; i < 4; ++i) tm.judge_faulty(0);  // TI ~ 0.41 < 0.5
    ASSERT_TRUE(tm.is_isolated(0));

    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2};
    const auto d = arb.decide(all, std::vector<NodeId>{0}, false);
    EXPECT_TRUE(d.reporters.empty());  // isolated reporter not counted
    EXPECT_EQ(d.silent.size(), 2u);
    EXPECT_FALSE(d.event_declared);
}

TEST(BinaryArbiter, MajorityPolicyIgnoresTrust) {
    TrustManager tm(params());
    for (int i = 0; i < 10; ++i) tm.judge_faulty(0);
    BinaryArbiter arb(tm, DecisionPolicy::MajorityVote);
    const std::vector<NodeId> all{0, 1, 2};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 1}, true);
    EXPECT_TRUE(d.event_declared);
    EXPECT_DOUBLE_EQ(d.weight_reporters, 2.0);  // unweighted
    // MajorityVote never touches the table even with updates "on".
    EXPECT_DOUBLE_EQ(tm.v(1), 0.0);
    EXPECT_DOUBLE_EQ(tm.v(2), 0.0);
}

TEST(BinaryArbiter, ReporterNotInNeighbourSetIgnored) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 7}, false);
    EXPECT_EQ(d.reporters.size(), 1u);  // node 7 is not an event neighbour
    EXPECT_EQ(d.reporters[0], 0u);
}

TEST(BinaryArbiter, OutputsSorted) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{3, 1, 2, 0};
    const auto d = arb.decide(all, std::vector<NodeId>{3, 0}, false);
    ASSERT_EQ(d.reporters.size(), 2u);
    EXPECT_LT(d.reporters[0], d.reporters[1]);
    ASSERT_EQ(d.silent.size(), 2u);
    EXPECT_LT(d.silent[0], d.silent[1]);
}

/// The partition as decide() computed it with a per-call hash set of
/// reporters: the naive reference the membership mask must reproduce.
BinaryDecision hash_set_partition(const TrustManager& tm, DecisionPolicy policy,
                                  const std::vector<NodeId>& neighbours,
                                  const std::vector<NodeId>& reporters) {
    const bool stateful = policy == DecisionPolicy::TrustIndex;
    const std::unordered_set<NodeId> reported(reporters.begin(), reporters.end());
    BinaryDecision d;
    for (NodeId n : neighbours) {
        if (stateful && tm.is_isolated(n)) continue;
        const double w = stateful ? tm.ti(n) : 1.0;
        if (reported.count(n)) {
            d.reporters.push_back(n);
            d.weight_reporters += w;
        } else {
            d.silent.push_back(n);
            d.weight_silent += w;
        }
    }
    std::sort(d.reporters.begin(), d.reporters.end());
    std::sort(d.silent.begin(), d.silent.end());
    d.event_declared = d.weight_reporters >= d.weight_silent;
    return d;
}

TEST(BinaryArbiter, MatchesHashSetReference) {
    // Seeded differential run: unsorted neighbour subsets, reporters drawn
    // with repeats and from beyond the neighbour ids, trust updates on so
    // nodes become isolated, both policies on one reused arbiter each.
    constexpr NodeId kPopulation = 24;
    auto p = params();
    p.removal_ti = 0.5;
    TrustManager tm(p);
    BinaryArbiter tibfit(tm, DecisionPolicy::TrustIndex);
    BinaryArbiter majority(tm, DecisionPolicy::MajorityVote);
    util::Rng rng(1203);
    std::vector<NodeId> population(kPopulation);
    std::iota(population.begin(), population.end(), 0);
    std::size_t isolated_seen = 0;
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE(trial);
        std::shuffle(population.begin(), population.end(), rng);
        const std::vector<NodeId> neighbours(
            population.begin(),
            population.begin() + static_cast<std::ptrdiff_t>(rng.uniform_index(kPopulation + 1)));
        std::vector<NodeId> reporters(rng.uniform_index(2 * kPopulation));
        for (NodeId& r : reporters) r = static_cast<NodeId>(rng.uniform_index(kPopulation + 8));
        for (NodeId n : neighbours) isolated_seen += tm.is_isolated(n) ? 1 : 0;

        for (BinaryArbiter* arb : {&majority, &tibfit}) {
            const BinaryDecision want = hash_set_partition(tm, arb->policy(), neighbours, reporters);
            const BinaryDecision got = arb->decide(neighbours, reporters, true);
            EXPECT_EQ(got.reporters, want.reporters);
            EXPECT_EQ(got.silent, want.silent);
            // Bit-equal: both sum the same TIs in neighbour order.
            EXPECT_EQ(got.weight_reporters, want.weight_reporters);
            EXPECT_EQ(got.weight_silent, want.weight_silent);
            EXPECT_EQ(got.event_declared, want.event_declared);
        }
    }
    EXPECT_GT(isolated_seen, 0u);
}

TEST(BinaryArbiter, ReusedArbiterForgetsPreviousReporters) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> wide{9, 3, 0, 5, 1};
    const std::vector<NodeId> narrow{1, 0, 3};
    auto d = arb.decide(wide, std::vector<NodeId>{9, 3, 0, 5, 1}, false);
    EXPECT_EQ(d.silent.size(), 0u);

    // Nobody reports now: every earlier reporter must land in NR, also the
    // ones whose ids lie past this call's neighbours.
    d = arb.decide(narrow, std::vector<NodeId>{}, false);
    EXPECT_TRUE(d.reporters.empty());
    EXPECT_EQ(d.silent, (std::vector<NodeId>{0, 1, 3}));
    d = arb.decide(wide, std::vector<NodeId>{5}, false);
    EXPECT_EQ(d.reporters, (std::vector<NodeId>{5}));
    EXPECT_EQ(d.silent, (std::vector<NodeId>{0, 1, 3, 9}));

    // A throwing call leaves no membership behind either.
    EXPECT_THROW(arb.decide(std::vector<NodeId>{0, kNoNode}, std::vector<NodeId>{0}, false),
                 std::invalid_argument);
    d = arb.decide(narrow, std::vector<NodeId>{}, false);
    EXPECT_TRUE(d.reporters.empty());
}

TEST(BaselineVoter, ConvenienceMatchesArbiter) {
    const std::vector<NodeId> all{0, 1, 2, 3, 4};
    const auto d = majority_vote_binary(all, std::vector<NodeId>{0, 1, 2});
    EXPECT_TRUE(d.event_declared);
    const auto d2 = majority_vote_binary(all, std::vector<NodeId>{0});
    EXPECT_FALSE(d2.event_declared);
}

// Property: under TrustIndex the declared side always has the maximal CTI.
class ArbiterSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArbiterSplitSweep, WinnerHasMaxCti) {
    TrustManager tm(params());
    // Deterministically vary trust: node i gets i faults.
    for (NodeId n = 0; n < 8; ++n) {
        for (int k = 0; k < static_cast<int>(n); ++k) tm.judge_faulty(n);
    }
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    std::vector<NodeId> all;
    for (NodeId n = 0; n < 8; ++n) all.push_back(n);
    std::vector<NodeId> reporters;
    const int mask = GetParam();
    for (NodeId n = 0; n < 8; ++n) {
        if (mask & (1 << n)) reporters.push_back(n);
    }
    const auto d = arb.decide(all, reporters, false);
    if (d.event_declared) {
        EXPECT_GE(d.weight_reporters, d.weight_silent);
    } else {
        EXPECT_GT(d.weight_silent, d.weight_reporters);
    }
    // Weights equal the CTI of the returned partitions.
    EXPECT_NEAR(d.weight_reporters, tm.cumulative_ti(d.reporters), 1e-12);
    EXPECT_NEAR(d.weight_silent, tm.cumulative_ti(d.silent), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllSplits, ArbiterSplitSweep,
                         ::testing::Values(0, 1, 3, 7, 15, 31, 63, 127, 255, 85, 170, 204));

}  // namespace
}  // namespace tibfit::core
