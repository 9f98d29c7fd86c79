// Integration tests: whole-network simulations through the experiment
// harness, checking the paper's qualitative claims end-to-end on fixed
// seeds (small event counts keep these fast).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <variant>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "util/invariant.h"
#include "util/rng.h"

namespace tibfit::exp {
namespace {

Scenario binary_base(double pct_faulty = 0.4) {
    Scenario c = Scenario::binary_defaults();
    c.binary.n_nodes = 10;
    c.binary.pct_faulty = pct_faulty;
    c.binary.events = 100;
    c.engine.trust.lambda = 0.1;
    c.faults.natural_error_rate = 0.01;
    c.faults.missed_alarm_rate = 0.5;
    c.channel.drop_probability = 0.0;
    c.seed = 42;
    return c;
}

Scenario location_base(double pct_faulty = 0.1, std::size_t events = 100) {
    Scenario c = Scenario::location_defaults();
    c.location.pct_faulty = pct_faulty;
    c.location.events = events;
    c.seed = 42;
    return c;
}

TEST(BinaryExperiment, Deterministic) {
    const auto a = run_binary_experiment(binary_base());
    const auto b = run_binary_experiment(binary_base());
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.mean_ti_faulty, b.mean_ti_faulty);
}

TEST(BinaryExperiment, RunsAllEvents) {
    const auto r = run_binary_experiment(binary_base());
    EXPECT_EQ(r.events, 100u);
}

TEST(BinaryExperiment, HighAccuracyAtModerateCompromise) {
    const auto r = run_binary_experiment(binary_base(0.5));
    EXPECT_GT(r.accuracy, 0.9);
}

TEST(BinaryExperiment, FaultyNodesLoseTrust) {
    const auto r = run_binary_experiment(binary_base(0.5));
    // Correct nodes occasionally miss (NER) and recover slowly; faulty
    // nodes' trust collapses well below theirs.
    EXPECT_GT(r.mean_ti_correct, 0.8);
    EXPECT_LT(r.mean_ti_faulty, 0.3);
}

TEST(BinaryExperiment, TibfitBeatsBaselineAtHighCompromise) {
    const Scenario tib = binary_base(0.8);
    Scenario base = tib;
    base.engine.policy = core::DecisionPolicy::MajorityVote;
    EXPECT_GT(mean_accuracy(tib, 10), mean_accuracy(base, 10));
}

TEST(BinaryExperiment, FalseAlarmsCreateNegativeInstances) {
    auto c = binary_base(0.5);
    c.faults.false_alarm_rate = 0.75;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.false_alarm_windows, 0u);
    // With half the network fresh-compromised, the honest majority CTI
    // rejects most phantom windows.
    EXPECT_LT(r.phantoms_declared, r.false_alarm_windows);
}

TEST(BinaryExperiment, ModerateFalseAlarmsDoNotHurtDetection) {
    // The Figure-3 effect: false alarms drain faulty nodes' trust.
    const Scenario quiet = binary_base(0.7);
    Scenario noisy = quiet;
    noisy.faults.false_alarm_rate = 0.75;
    EXPECT_GT(mean_accuracy(noisy, 10), mean_accuracy(quiet, 10) - 0.05);
}

TEST(BinaryExperiment, CorruptChDestroysAccuracy) {
    auto c = binary_base(0.4);
    c.binary.corrupt_ch = true;
    const auto r = run_binary_experiment(c);
    EXPECT_LT(r.accuracy, 0.1);  // every announcement inverted
}

TEST(BinaryExperiment, ShadowsMaskCorruptCh) {
    auto c = binary_base(0.4);
    c.binary.corrupt_ch = true;
    c.binary.use_shadows = true;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.accuracy, 0.95);
    EXPECT_GT(r.ch_overrides, 90u);  // nearly every decision was corrected
}

TEST(BinaryExperiment, ShadowsNeutralWithHonestCh) {
    const Scenario c = binary_base(0.4);
    Scenario with = c;
    with.binary.use_shadows = true;
    const auto plain = run_binary_experiment(c);
    const auto shadowed = run_binary_experiment(with);
    EXPECT_NEAR(shadowed.accuracy, plain.accuracy, 0.03);
    EXPECT_EQ(shadowed.ch_overrides, 0u);
}

TEST(LocationExperiment, Deterministic) {
    const auto a = run_location_experiment(location_base());
    const auto b = run_location_experiment(location_base());
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.false_positives, b.false_positives);
}

TEST(LocationExperiment, NearPerfectWithFewFaults) {
    const auto r = run_location_experiment(location_base(0.1));
    EXPECT_GT(r.accuracy, 0.95);
    EXPECT_EQ(r.events, 100u);
}

TEST(LocationExperiment, FaultyNodesLoseTrust) {
    const auto r = run_location_experiment(location_base(0.3, 150));
    EXPECT_GT(r.mean_ti_correct, 0.8);
    EXPECT_LT(r.mean_ti_faulty, r.mean_ti_correct - 0.3);
}

TEST(LocationExperiment, TibfitBeatsBaselinePastHalf) {
    const Scenario tib = location_base(0.55, 150);
    Scenario base = tib;
    base.engine.policy = core::DecisionPolicy::MajorityVote;
    EXPECT_GT(mean_accuracy(tib, 3), mean_accuracy(base, 3) + 0.03);
}

TEST(LocationExperiment, Level1KeepsAccuracyHigh) {
    // Figure 5: the hysteresis forces level-1 nodes to mostly behave.
    auto c = location_base(0.58, 150);
    c.location.fault_level = sensor::NodeClass::Level1;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.85);
}

TEST(LocationExperiment, Level2WorseThanLevel1) {
    // Figure 6: collusion hurts more than independent smart faults.
    auto l1 = location_base(0.5, 150);
    l1.location.fault_level = sensor::NodeClass::Level1;
    auto l2 = l1;
    l2.location.fault_level = sensor::NodeClass::Level2;
    EXPECT_LE(mean_accuracy(l2, 3), mean_accuracy(l1, 3) + 0.02);
}

TEST(LocationExperiment, ConcurrentEventsComparableToSingle) {
    // Figure 7: concurrency does not materially change accuracy.
    const Scenario single = location_base(0.3, 120);
    Scenario conc = single;
    conc.location.burst = 2;
    EXPECT_NEAR(mean_accuracy(conc, 3), mean_accuracy(single, 3), 0.12);
}

TEST(LocationExperiment, DecayProducesEpochSeries) {
    auto c = location_base();
    c.location.decay = true;
    c.location.decay_initial = 0.05;
    c.location.decay_step = 0.10;
    c.location.decay_final = 0.55;
    c.location.decay_epoch_events = 30;
    c.location.epoch_events = 30;
    const auto r = run_location_experiment(c);
    EXPECT_EQ(r.events, 6u * 30u);
    ASSERT_EQ(r.epoch_accuracy.size(), 6u);
    // Early epochs (5% compromised) are nearly perfect; the last (55%) is
    // worse but the run still functions.
    EXPECT_GT(r.epoch_accuracy.front(), 0.9);
    EXPECT_GT(r.epoch_accuracy.back(), 0.3);
}

TEST(LocationExperiment, DecayTibfitOutlastsBaseline) {
    auto tib = location_base();
    tib.location.decay = true;
    tib.location.decay_initial = 0.05;
    tib.location.decay_step = 0.10;
    tib.location.decay_final = 0.65;
    tib.location.decay_epoch_events = 25;
    tib.location.epoch_events = 25;
    auto baseline = tib;
    baseline.engine.policy = core::DecisionPolicy::MajorityVote;
    const std::vector<Scenario> cells{tib, baseline};
    const auto curves = mean_epoch_accuracies(cells, 3);
    const auto& rt = curves[0];
    const auto& rb = curves[1];
    ASSERT_EQ(rt.size(), rb.size());
    // Cumulative accuracy over the decayed half of the run favours TIBFIT.
    double t_late = 0.0, b_late = 0.0;
    for (std::size_t i = rt.size() / 2; i < rt.size(); ++i) {
        t_late += rt[i];
        b_late += rb[i];
    }
    EXPECT_GT(t_late, b_late);
}

TEST(LocationExperiment, IsolationDiagnosesFaultyNodes) {
    const auto r = run_location_experiment(location_base(0.3, 200));
    EXPECT_GT(r.isolated, 0u);  // diagnosis happened
}

TEST(LocationExperiment, MultiHopMatchesSingleHop) {
    // Section 3.4 extension: the decision pipeline should be agnostic to
    // whether reports arrive in one hop or over relays.
    const Scenario single = location_base(0.3, 120);
    Scenario multi = single;
    multi.location.multihop = true;
    multi.location.radio_range = 30.0;
    const auto rs = run_location_experiment(single);
    const auto rm = run_location_experiment(multi);
    EXPECT_NEAR(rm.accuracy, rs.accuracy, 0.08);
    EXPECT_GT(rm.accuracy, 0.85);
}

TEST(LocationExperiment, MultiHopDeterministic) {
    auto c = location_base(0.1, 60);
    c.location.multihop = true;
    const auto a = run_location_experiment(c);
    const auto b = run_location_experiment(c);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
}

TEST(LocationExperiment, CollusionDefenseImprovesLevel2) {
    auto off = location_base(0.55, 200);
    off.location.fault_level = sensor::NodeClass::Level2;
    auto on = off;
    on.engine.collusion_defense = true;
    EXPECT_GT(mean_accuracy(on, 3), mean_accuracy(off, 3) + 0.05);
}

TEST(LocationExperiment, RandomLayoutAlsoWorks) {
    auto c = location_base(0.2);
    c.location.grid_layout = false;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.85);
}

TEST(LocationExperiment, TraceCapturesRun) {
    // The obs trace carries the whole run: one EventInjected per generated
    // event and one DecisionMade per kept decision, in decision order.
    obs::Recorder rec;
    rec.trace().set_enabled(true);
    auto c = location_base();
    c.location.events = 40;
    c.keep_decisions = true;
    c.recorder = &rec;
    const auto r = run_location_experiment(c);
    EXPECT_EQ(r.events, 40u);
    EXPECT_EQ(rec.trace().count<obs::EventInjected>(), r.events);
    ASSERT_EQ(rec.trace().count<obs::DecisionMade>(), r.decisions.size());
    EXPECT_GE(r.decisions.size(), r.detected);
    std::size_t i = 0;
    for (const auto& record : rec.trace().records()) {
        const auto* d = std::get_if<obs::DecisionMade>(&record.data);
        if (!d) continue;
        const auto& kept = r.decisions[i++];
        EXPECT_EQ(d->decision_seq, kept.seq);
        EXPECT_EQ(record.time, kept.time);
        EXPECT_NEAR(record.time - d->latency, kept.window_opened, 1e-9);
    }
}

TEST(LocationExperiment, TraceOffByDefault) {
    auto c = location_base();
    c.location.events = 20;
    const auto r = run_location_experiment(c);
    EXPECT_TRUE(r.decisions.empty());
}

TEST(Sweep, BinarySweepShapes) {
    const std::vector<Scenario> cells{binary_base(0.2), binary_base(0.9)};
    const auto accs = mean_accuracies(cells, 3);
    ASSERT_EQ(accs.size(), 2u);
    EXPECT_GT(accs[0], accs[1]);  // more faults, less accuracy
}

TEST(Sweep, LocationSweepShapes) {
    const std::vector<Scenario> cells{location_base(0.1, 80), location_base(0.58, 80)};
    const auto accs = mean_accuracies(cells, 2);
    ASSERT_EQ(accs.size(), 2u);
    EXPECT_GE(accs[0], accs[1]);
}

/// The scorer as it was before the time window: every event against every
/// decision. Kept as the differential reference for score_location.
LocationScore all_pairs_score(std::span<const sensor::GeneratedEvent> events,
                              std::span<const cluster::DecisionRecord> decisions,
                              double match_window, double r_error) {
    LocationScore score;
    score.event_detected.assign(events.size(), false);
    std::vector<bool> explained(decisions.size(), false);
    for (std::size_t e = 0; e < events.size(); ++e) {
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            const auto& dec = decisions[d];
            if (!dec.has_location) continue;
            const double dt = dec.time - events[e].time;
            if (dt < 0.0 || dt > match_window) continue;
            if (util::distance(dec.location, events[e].location) > r_error) continue;
            explained[d] = true;
            if (dec.event_declared) score.event_detected[e] = true;
        }
        if (score.event_detected[e]) ++score.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (!explained[d] && decisions[d].event_declared) ++score.false_positives;
    }
    return score;
}

void expect_same_score(const LocationScore& got, const LocationScore& want) {
    EXPECT_EQ(got.event_detected, want.event_detected);
    EXPECT_EQ(got.detected, want.detected);
    EXPECT_EQ(got.false_positives, want.false_positives);
}

TEST(LocationScore, MatchesAllPairsReference) {
    // Seeded logs: events in any time order, decisions in time order with
    // runs of equal times, decisions at exactly dt = 0 and dt = window,
    // decisions without a location, and empty histories on either side.
    util::ScopedInvariantAction checks(util::InvariantAction::Throw);
    const double window = 4.0, r_error = 5.0;
    util::Rng rng(1729);
    std::size_t detected = 0, false_positives = 0;
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        std::vector<sensor::GeneratedEvent> events(rng.uniform_index(trial % 10 == 0 ? 2 : 30));
        for (auto& ev : events) {
            ev.time = std::floor(rng.uniform(0.0, 60.0));
            ev.location = rng.point_in_rect(30, 30);
        }
        std::vector<cluster::DecisionRecord> decisions(rng.uniform_index(trial % 10 == 5 ? 2 : 40));
        double t = 0.0;
        for (auto& dec : decisions) {
            const double u = rng.uniform();
            if (u < 0.2 && !events.empty()) {
                // On an event's own time or the far edge of its window.
                const auto& ev = events[rng.uniform_index(events.size())];
                t = std::max(t, ev.time + (u < 0.1 ? 0.0 : window));
                dec.location = ev.location + util::Vec2{rng.uniform(-4, 4), rng.uniform(-4, 4)};
            } else {
                if (u > 0.3) t += rng.exponential(0.5);  // else: same time as before
                dec.location = rng.point_in_rect(30, 30);
            }
            dec.time = t;
            dec.has_location = rng.uniform() < 0.9;
            dec.event_declared = rng.uniform() < 0.7;
        }
        const LocationScore got = score_location(events, decisions, window, r_error);
        expect_same_score(got, all_pairs_score(events, decisions, window, r_error));
        detected += got.detected;
        false_positives += got.false_positives;
    }
    EXPECT_GT(detected, 0u);
    EXPECT_GT(false_positives, 0u);
}

TEST(LocationScore, WindowEdgesAreInclusive) {
    sensor::GeneratedEvent ev;
    ev.time = 10.0;
    ev.location = {50, 50};
    const auto decision_at = [](double time, bool has_location) {
        cluster::DecisionRecord d;
        d.time = time;
        d.has_location = has_location;
        d.location = {52, 50};
        d.event_declared = true;
        return d;
    };
    const std::vector<sensor::GeneratedEvent> events{ev};
    for (const auto& [time, matches] :
         {std::pair{10.0, true}, std::pair{14.0, true}, std::pair{std::nextafter(10.0, 0.0), false},
          std::pair{std::nextafter(14.0, 20.0), false}}) {
        SCOPED_TRACE(time);
        const std::vector<cluster::DecisionRecord> decisions{decision_at(time, true)};
        const LocationScore s = score_location(events, decisions, 4.0, 5.0);
        EXPECT_EQ(s.detected, matches ? 1u : 0u);
        EXPECT_EQ(s.false_positives, matches ? 0u : 1u);
    }
    // Several decisions at one time, one without a location: that one
    // explains nothing and counts as a false positive.
    const std::vector<cluster::DecisionRecord> tied{decision_at(12.0, false),
                                                    decision_at(12.0, true)};
    const LocationScore s = score_location(events, tied, 4.0, 5.0);
    EXPECT_EQ(s.detected, 1u);
    EXPECT_EQ(s.false_positives, 1u);

    const LocationScore none = score_location({}, {}, 4.0, 5.0);
    EXPECT_TRUE(none.event_detected.empty());
    EXPECT_EQ(none.detected + none.false_positives, 0u);
}

TEST(LocationScore, DecisionsOutOfTimeOrderFailTheCheck) {
    util::ScopedInvariantAction checks(util::InvariantAction::Throw);
    std::vector<cluster::DecisionRecord> decisions(2);
    decisions[0].time = 5.0;
    decisions[1].time = 4.0;
    EXPECT_THROW(score_location({}, decisions, 4.0, 5.0), std::logic_error);
}

}  // namespace
}  // namespace tibfit::exp
