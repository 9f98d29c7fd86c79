// tibfit::inject contract tests: campaigns are deterministic (bit-identical
// across thread counts), trust checkpoint/restore is lossless, injection is
// provably zero-cost while no fault window is active, and the warm-handoff
// checkpoint measurably beats a cold restart.
#include "inject/campaign.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/trust.h"
#include "exp/binary_experiment.h"
#include "exp/scenario.h"
#include "exp/sweep.h"
#include "obs/fields.h"
#include "par/jobs.h"

namespace tibfit::exp {
namespace {

class JobsGuard {
  public:
    JobsGuard() = default;
    ~JobsGuard() { par::set_jobs(0); }
};

/// The bench_inject Table-B shape, scaled down: liars raise false alarms,
/// the CH dies mid-run while the channel degrades.
Scenario failover_scenario(bool warm) {
    Scenario s = Scenario::binary_defaults();
    s.binary.events = 60;
    s.binary.pct_faulty = 0.5;
    s.faults.false_alarm_rate = 0.35;
    s.seed = 424242;

    inject::ChFailover f;
    f.kill_at = 300.0;
    f.warm_handoff = warm;
    s.campaign.failovers.push_back(f);

    net::ChannelFaultWindow w;
    w.start = 300.0;
    w.end = 1e9;
    w.extra_drop = 0.45;
    s.campaign.degradations.push_back(w);
    return s;
}

bool same_decisions(const std::vector<cluster::DecisionRecord>& a,
                    const std::vector<cluster::DecisionRecord>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].event_declared != b[i].event_declared ||
            a[i].weight_reporters != b[i].weight_reporters ||
            a[i].weight_silent != b[i].weight_silent || a[i].n_reporters != b[i].n_reporters) {
            return false;
        }
    }
    return true;
}

TEST(Inject, FailoverSweepBitIdenticalAcrossJobs) {
    JobsGuard guard;
    par::set_jobs(1);
    const double serial = mean_accuracy(failover_scenario(true), 8);
    for (std::size_t jobs : {2u, 4u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracy(failover_scenario(true), 8), serial) << "jobs=" << jobs;
    }
}

TEST(Inject, FailoverRunIsReplayableFromSeed) {
    Scenario s = failover_scenario(true);
    s.keep_decisions = true;
    const BinaryResult first = run_binary_experiment(s);
    const BinaryResult second = run_binary_experiment(s);
    EXPECT_EQ(first.accuracy, second.accuracy);
    ASSERT_FALSE(first.decisions.empty());
    EXPECT_TRUE(same_decisions(first.decisions, second.decisions));
}

TEST(Inject, CheckpointRestoreIsLossless) {
    core::TrustParams p;
    p.lambda = 0.1;
    p.fault_rate = 0.05;
    core::TrustManager original(p);
    for (int round = 0; round < 7; ++round) {
        original.judge_faulty(3);
        original.judge_faulty(5);
        original.judge_correct(1);
        original.judge_correct(3);
    }

    const core::TrustCheckpoint snap = original.checkpoint();
    core::TrustManager restored = core::TrustManager::restore(snap);
    EXPECT_EQ(restored.tracked(), original.tracked());
    for (core::NodeId n = 0; n < 8; ++n) {
        EXPECT_EQ(restored.v(n), original.v(n)) << "node " << n;
        EXPECT_EQ(restored.ti(n), original.ti(n)) << "node " << n;
    }

    // Resume-from-checkpoint vs. continuous run: the same judgement stream
    // applied to both tables keeps them bit-identical.
    for (int round = 0; round < 5; ++round) {
        original.judge_faulty(5);
        restored.judge_faulty(5);
        original.judge_correct(3);
        restored.judge_correct(3);
    }
    EXPECT_EQ(restored.export_v(), original.export_v());
}

TEST(Inject, InactiveFaultWindowCannotPerturbDecisions) {
    // The isolation guarantee behind "zero-cost-off": injection coins are
    // drawn from the channel's dedicated fault stream ONLY while a window
    // is active, so a schedule that never activates leaves the decision
    // stream byte-identical — even with a savage drop rate configured.
    Scenario clean = Scenario::binary_defaults();
    clean.binary.events = 50;
    clean.faults.false_alarm_rate = 0.2;
    clean.seed = 7;
    clean.keep_decisions = true;

    Scenario armed = clean;
    net::ChannelFaultWindow w;
    w.start = 1e8;  // long after the run ends
    w.end = 1e9;
    w.extra_drop = 0.95;
    w.duplicate_probability = 0.9;
    w.delay_jitter = 5.0;
    armed.campaign.degradations.push_back(w);

    const BinaryResult a = run_binary_experiment(clean);
    const BinaryResult b = run_binary_experiment(armed);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_TRUE(same_decisions(a.decisions, b.decisions));
}

TEST(Inject, WarmHandoffBeatsColdAtMajorityCompromise) {
    JobsGuard guard;
    par::set_jobs(4);
    const double warm = mean_accuracy(failover_scenario(true), 10);
    const double cold = mean_accuracy(failover_scenario(false), 10);
    EXPECT_GT(warm, cold);
}

TEST(Inject, CampaignSpecJsonRoundTrip) {
    inject::CampaignSpec spec;
    net::ChannelFaultWindow w;
    w.start = 10.0;
    w.end = 50.0;
    w.extra_drop = 0.25;
    w.duplicate_probability = 0.1;
    w.delay_jitter = 0.5;
    w.reorder_probability = 0.05;
    w.reorder_hold = 0.2;
    spec.degradations.push_back(w);
    spec.failovers.push_back({120.0, 400.0, false});
    spec.compromises.push_back({200.0, 0.6});
    spec.fault_shifts.push_back({250.0, 0.9, -1.0});

    std::ostringstream os;
    {
        obs::json::Writer writer(os, 2);
        obs::fields::write_value(writer, spec);
    }
    inject::CampaignSpec back;
    obs::fields::read_value(obs::json::parse(os.str()), back, "", "campaign");

    ASSERT_EQ(back.degradations.size(), 1u);
    EXPECT_EQ(back.degradations[0].start, w.start);
    EXPECT_EQ(back.degradations[0].end, w.end);
    EXPECT_EQ(back.degradations[0].extra_drop, w.extra_drop);
    EXPECT_EQ(back.degradations[0].duplicate_probability, w.duplicate_probability);
    EXPECT_EQ(back.degradations[0].delay_jitter, w.delay_jitter);
    EXPECT_EQ(back.degradations[0].reorder_probability, w.reorder_probability);
    EXPECT_EQ(back.degradations[0].reorder_hold, w.reorder_hold);
    ASSERT_EQ(back.failovers.size(), 1u);
    EXPECT_EQ(back.failovers[0].kill_at, 120.0);
    EXPECT_EQ(back.failovers[0].recover_at, 400.0);
    EXPECT_FALSE(back.failovers[0].warm_handoff);
    ASSERT_EQ(back.compromises.size(), 1u);
    EXPECT_EQ(back.compromises[0].at, 200.0);
    EXPECT_EQ(back.compromises[0].target_pct, 0.6);
    ASSERT_EQ(back.fault_shifts.size(), 1u);
    EXPECT_EQ(back.fault_shifts[0].at, 250.0);
    EXPECT_EQ(back.fault_shifts[0].missed_alarm_rate, 0.9);
    EXPECT_EQ(back.fault_shifts[0].false_alarm_rate, -1.0);
    EXPECT_TRUE(back.validate().empty());
}

TEST(Inject, RecoveryHandsLeadershipBack) {
    // kill_at then recover_at: the run completes, stays deterministic, and
    // fires two failover events (kill + recovery).
    Scenario s = failover_scenario(true);
    s.campaign.failovers[0].recover_at = 450.0;
    const BinaryResult a = run_binary_experiment(s);
    const BinaryResult b = run_binary_experiment(s);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_GT(a.events, 0u);
}

}  // namespace
}  // namespace tibfit::exp
