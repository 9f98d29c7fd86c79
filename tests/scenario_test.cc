// exp::Scenario contract tests: the validate() rejection table (which the
// runners enforce), the JSON round-trip, the fluent with_* setters, and
// equivalence of the LocationConfig mapping with the Scenario-native entry
// point.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "obs/json.h"

namespace tibfit::exp {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
    return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
        return e.find(needle) != std::string::npos;
    });
}

TEST(Scenario, DefaultsAreValid) {
    EXPECT_TRUE(Scenario::binary_defaults().validate().empty());
    EXPECT_TRUE(Scenario::location_defaults().validate().empty());
}

TEST(Scenario, ValidateRejectionTable) {
    struct Case {
        const char* needle;
        void (*mutate)(Scenario&);
        bool location_kind;
    };
    const Case cases[] = {
        {"lambda", [](Scenario& s) { s.engine.trust.lambda = 0.0; }, false},
        {"r_error exceeds the deployment extent",
         [](Scenario& s) { s.engine.r_error = s.deployment.field + 1.0; }, false},
        {"retry budget with zero ack_timeout",
         [](Scenario& s) { s.transport.ack_timeout = 0.0; }, false},
        {"removal_ti", [](Scenario& s) { s.engine.trust.removal_ti = 1.5; }, false},
        {"t_out", [](Scenario& s) { s.engine.t_out = 0.0; }, false},
        {"drop_probability", [](Scenario& s) { s.channel.drop_probability = 1.5; }, false},
        {"false_alarm_rate", [](Scenario& s) { s.faults.false_alarm_rate = -0.25; }, false},
        {"speed_min > speed_max",
         [](Scenario& s) {
             s.mobility.speed_min = 2.0;
             s.mobility.speed_max = 1.0;
         },
         false},
        {"pct_faulty", [](Scenario& s) { s.binary.pct_faulty = 1.2; }, false},
        {"events", [](Scenario& s) { s.binary.events = 0; }, false},
        {"mutually exclusive",
         [](Scenario& s) {
             s.binary.use_shadows = true;
             s.campaign.failovers.push_back({100.0, -1.0, true});
         },
         false},
        {"explicit trust fault_rate",
         [](Scenario& s) { s.engine.trust.fault_rate = -1.0; }, true},
        // Unvalidated, these four crash or misreport a run: SIGSEGV (no
        // CH), SIGFPE (burst 0), llround(inf) (decay step 0), and an
        // accuracy of 0 for an empty network.
        {"n_ch", [](Scenario& s) { s.location.n_ch = 0; }, true},
        {"burst must be >= 1", [](Scenario& s) { s.location.burst = 0; }, true},
        {"decay_step must be > 0",
         [](Scenario& s) {
             s.location.decay = true;
             s.location.decay_step = 0.0;
         },
         true},
        {"binary n_nodes must be >= 1", [](Scenario& s) { s.binary.n_nodes = 0; }, false},
        {"decay_final < decay_initial",
         [](Scenario& s) {
             s.location.decay = true;
             s.location.decay_initial = 0.5;
             s.location.decay_final = 0.1;
         },
         true},
        // Campaign defects surface through scenario.validate() too.
        {"window", [](Scenario& s) {
             net::ChannelFaultWindow w;
             w.start = 50.0;
             w.end = 10.0;  // inverted
             s.campaign.degradations.push_back(w);
         }, false},
        {"recover", [](Scenario& s) {
             s.campaign.failovers.push_back({100.0, 50.0, true});  // recover before kill
         }, false},
    };
    for (const auto& c : cases) {
        Scenario s = c.location_kind ? Scenario::location_defaults() : Scenario::binary_defaults();
        c.mutate(s);
        const auto errors = s.validate();
        EXPECT_FALSE(errors.empty()) << c.needle;
        EXPECT_TRUE(mentions(errors, c.needle))
            << "expected an error mentioning '" << c.needle << "'";
        // The runners refuse the same scenario, carrying every message.
        try {
            if (c.location_kind) {
                run_location_experiment(s);
            } else {
                run_binary_experiment(s);
            }
            ADD_FAILURE() << "runner accepted a scenario with '" << c.needle << "'";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos) << e.what();
        }
    }
}

TEST(Scenario, FluentBuilderComposes) {
    Scenario s = Scenario::binary_defaults()
                     .with_seed(77)
                     .with_policy(core::DecisionPolicy::MajorityVote)
                     .with_lambda(0.5)
                     .with_fault_rate(0.02)
                     .with_removal_ti(0.1)
                     .with_t_out(2.0)
                     .with_channel_drop(0.05)
                     .with_pct_faulty(0.3)
                     .with_events(42);
    EXPECT_EQ(s.seed, 77u);
    EXPECT_EQ(s.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(s.engine.trust.lambda, 0.5);
    EXPECT_EQ(s.engine.trust.fault_rate, 0.02);
    EXPECT_EQ(s.engine.trust.removal_ti, 0.1);
    EXPECT_EQ(s.engine.t_out, 2.0);
    EXPECT_EQ(s.channel.drop_probability, 0.05);
    EXPECT_EQ(s.binary.pct_faulty, 0.3);
    EXPECT_EQ(s.location.pct_faulty, 0.3);
    EXPECT_EQ(s.binary.events, 42u);
}

TEST(Scenario, EffectiveTrustResolvesNerSentinel) {
    Scenario s = Scenario::binary_defaults();
    s.faults.natural_error_rate = 0.05;
    ASSERT_LT(s.engine.trust.fault_rate, 0.0);
    EXPECT_EQ(s.effective_trust().fault_rate, 0.05);
    // Location kind never applies the sentinel.
    Scenario loc = Scenario::location_defaults();
    loc.engine.trust.fault_rate = 0.1;
    EXPECT_EQ(loc.effective_trust().fault_rate, 0.1);
}

TEST(Scenario, JsonRoundTripPreservesEveryLayer) {
    Scenario s = Scenario::location_defaults();
    s.seed = 123456;
    s.engine.policy = core::DecisionPolicy::MajorityVote;
    s.engine.trust.lambda = 0.3;
    s.engine.r_error = 7.5;
    s.channel.drop_probability = 0.02;
    s.channel.airtime = 0.001;
    s.transport.max_retries = 9;
    s.deployment.field = 150.0;
    s.faults.faulty_sigma = 5.5;
    s.faults.collusion_jitter = 0.25;
    s.mobility.speed_max = 3.0;
    s.location.n_nodes = 64;
    s.location.fault_level = sensor::NodeClass::Level2;
    s.location.multihop = true;
    s.location.decay = true;
    s.location.decay_final = 0.6;
    net::ChannelFaultWindow w;
    w.start = 5.0;
    w.end = 10.0;
    w.extra_drop = 0.5;
    s.campaign.degradations.push_back(w);
    s.campaign.compromises.push_back({400.0, 0.5});

    const Scenario back = scenario_from_json_text(to_json(s));
    EXPECT_EQ(back.kind, Scenario::Kind::Location);
    EXPECT_EQ(back.seed, 123456u);
    EXPECT_EQ(back.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(back.engine.trust.lambda, 0.3);
    EXPECT_EQ(back.engine.r_error, 7.5);
    EXPECT_EQ(back.channel.drop_probability, 0.02);
    EXPECT_EQ(back.channel.airtime, 0.001);
    EXPECT_EQ(back.transport.max_retries, 9u);
    EXPECT_EQ(back.deployment.field, 150.0);
    EXPECT_EQ(back.faults.faulty_sigma, 5.5);
    EXPECT_EQ(back.faults.collusion_jitter, 0.25);
    EXPECT_EQ(back.mobility.speed_max, 3.0);
    EXPECT_EQ(back.location.n_nodes, 64u);
    EXPECT_EQ(back.location.fault_level, sensor::NodeClass::Level2);
    EXPECT_TRUE(back.location.multihop);
    EXPECT_TRUE(back.location.decay);
    EXPECT_EQ(back.location.decay_final, 0.6);
    ASSERT_EQ(back.campaign.degradations.size(), 1u);
    EXPECT_EQ(back.campaign.degradations[0].extra_drop, 0.5);
    ASSERT_EQ(back.campaign.compromises.size(), 1u);
    EXPECT_EQ(back.campaign.compromises[0].target_pct, 0.5);
}

TEST(Scenario, FromJsonRejectsUnknownKind) {
    EXPECT_THROW(scenario_from_json_text(R"({"kind": "quantum"})"), std::runtime_error);
    EXPECT_THROW(scenario_from_json_text(R"([1, 2, 3])"), std::runtime_error);
}

// LocationConfig survives only for the benchmark package; its mapping
// must keep describing exactly the Scenario-native run.
TEST(Scenario, LocationShimMatchesScenarioRun) {
    LocationConfig c;
    c.events = 40;
    c.pct_faulty = 0.3;
    c.seed = 31337;
    const LocationResult via_shim = run_location_experiment(to_scenario(c));
    const LocationResult via_scenario = run_location_experiment(
        Scenario::location_defaults().with_events(40).with_pct_faulty(0.3).with_seed(31337));
    EXPECT_EQ(via_shim.accuracy, via_scenario.accuracy);
    EXPECT_EQ(via_shim.detected, via_scenario.detected);
    EXPECT_EQ(via_shim.isolated, via_scenario.isolated);
    EXPECT_EQ(via_shim.mean_ti_correct, via_scenario.mean_ti_correct);
}

}  // namespace
}  // namespace tibfit::exp
