// exp::Scenario contract tests: the validate() rejection table (which the
// runners enforce), the JSON round-trip and its pinned text, key=value
// overrides, and equivalence of the LocationConfig mapping with the
// Scenario-native entry point.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/json.h"
#include "util/table.h"

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
        {"leach ch_fraction outside (0, 1]",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.leach.ch_fraction = 0.0;
         },
         true},
        {"leach ch_fraction outside (0, 1]",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.leach.ch_fraction = 1.5;
         },
         true},
        {"leach round_duration must be > 0",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.leach.round_duration = 0.0;
         },
         true},
        {"leach initial_energy must be > 0",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.leach.initial_energy = -1.0;
         },
         true},
        {"leach clustering with multihop",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.multihop = true;
         },
         true},
        {"leach clustering with mobile",
         [](Scenario& s) {
             s.location.clustering = Clustering::Leach;
             s.location.mobile = true;
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

// A bench's series and representative tokens compose: each sets one
// field, and a leaf sets only the field of the scenario's own kind.
TEST(Scenario, OverrideTokensCompose) {
    Scenario s = Scenario::binary_defaults();
    for (const std::string_view token :
         {"seed=77", "policy=majority_vote", "lambda=0.5", "fault_rate=0.02", "removal_ti=0.1",
          "t_out=2", "drop_probability=0.05", "pct_faulty=0.3", "events=42"}) {
        const auto eq = token.find('=');
        apply_override(s, token.substr(0, eq), token.substr(eq + 1));
    }
    EXPECT_EQ(s.seed, 77u);
    EXPECT_EQ(s.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(s.engine.trust.lambda, 0.5);
    EXPECT_EQ(s.engine.trust.fault_rate, 0.02);
    EXPECT_EQ(s.engine.trust.removal_ti, 0.1);
    EXPECT_EQ(s.engine.t_out, 2.0);
    EXPECT_EQ(s.channel.drop_probability, 0.05);
    EXPECT_EQ(s.binary.pct_faulty, 0.3);
    EXPECT_EQ(s.location.pct_faulty, Scenario::binary_defaults().location.pct_faulty);
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
    Scenario s = Scenario::location_defaults();
    s.location.events = 40;
    s.location.pct_faulty = 0.3;
    s.seed = 31337;
    const LocationResult via_scenario = run_location_experiment(s);
    EXPECT_EQ(via_shim.accuracy, via_scenario.accuracy);
    EXPECT_EQ(via_shim.detected, via_scenario.detected);
    EXPECT_EQ(via_shim.isolated, via_scenario.isolated);
    EXPECT_EQ(via_shim.mean_ti_correct, via_scenario.mean_ti_correct);
}

TEST(Scenario, OverrideTable) {
    struct Case {
        bool location_kind;
        const char* key;
        const char* value;
        const char* path;    ///< resolved path on success, nullptr if it throws
        const char* needle;  ///< the error names this (path and expected type)
    };
    const Case cases[] = {
        {false, "engine.trust.lambda", "0.3", "engine.trust.lambda", nullptr},
        {false, "lambda", "0.3", "engine.trust.lambda", nullptr},
        {false, "n_nodes", "12", "binary.n_nodes", nullptr},
        {true, "n_nodes", "64", "location.n_nodes", nullptr},
        {false, "location.n_nodes", "64", "location.n_nodes", nullptr},  // full paths reach both
        {true, "fault_rate", "-1", "engine.trust.fault_rate", nullptr},
        {false, "policy", "majority_vote", "engine.policy", nullptr},
        {true, "check.mode", "assert", "check.mode", nullptr},
        {true, "epsilon", "0.1", "engine.collusion.epsilon", nullptr},
        {false, "seed", "9007199254740992", "seed", nullptr},  // 2^53, exact in JSON
        {true, "clustering", "leach", "location.clustering", nullptr},
        {true, "ch_fraction", "0.08", "location.leach.ch_fraction", nullptr},
        {true, "location.leach.round_duration", "60", "location.leach.round_duration", nullptr},
        {true, "initial_energy", "0.05", "location.leach.initial_energy", nullptr},
        {true, "clustering", "dynamic", nullptr,
         "location.clustering expects one of static|leach"},
        {false, "clustering", "leach", nullptr, "unknown key 'clustering' for a binary scenario"},
        {false, "pct_fauly", "0.5", nullptr, "unknown key 'pct_fauly' for a binary scenario"},
        {false, "grid_layout", "false", nullptr, "unknown key 'grid_layout'"},
        {false, "engine.lambda", "0.3", nullptr, "unknown key 'engine.lambda'"},
        {false, "seed", "abc", nullptr, "seed expects an integer in [0, 9007199254740992]"},
        {false, "seed", "9007199254740993", nullptr, "seed expects an integer"},
        {true, "n_nodes", "-3", nullptr, "location.n_nodes expects an integer"},
        {true, "burst", "2.7", nullptr, "location.burst expects an integer"},
        {true, "ttl", "256", nullptr, "transport.ttl expects an integer in [0, 255]"},
        {true, "max_retries", "4294967296", nullptr, "transport.max_retries expects an integer"},
        {false, "use_shadows", "1", nullptr, "binary.use_shadows expects true or false"},
        {true, "fault_level", "7", nullptr,
         "location.fault_level expects one of correct|level0|level1|level2"},
        {false, "lambda", "nan", nullptr, "engine.trust.lambda expects a finite number"},
        {false, "lambda", "1e400", nullptr, "engine.trust.lambda expects a finite number"},
        {false, "lambda", "", nullptr, "engine.trust.lambda expects a finite number"},
        {false, "lambda", "0.3x", nullptr, "engine.trust.lambda expects a finite number"},
        {false, "campaign", "{}", nullptr, "'campaign' cannot be set"},
        {false, "kind", "location", nullptr, "'kind' cannot be set"},
    };
    for (const auto& c : cases) {
        Scenario s = c.location_kind ? Scenario::location_defaults() : Scenario::binary_defaults();
        const std::string before = to_json(s);
        const std::string token = std::string(c.key) + "=" + c.value;
        if (c.path) {
            EXPECT_EQ(apply_override(s, c.key, c.value), c.path) << token;
            // The JSON now carries the value at that path.
            const obs::json::Value v = obs::json::parse(to_json(s));
            const obs::json::Value* at = &v;
            for (std::string_view rest = c.path; at;) {
                const auto dot = rest.find('.');
                at = at->find(std::string(rest.substr(0, dot)));
                if (dot == std::string_view::npos) break;
                rest.remove_prefix(dot + 1);
            }
            ASSERT_NE(at, nullptr) << token;
            const std::string carried =
                at->is_string() ? at->as_string() : obs::json::number_to_string(at->as_number());
            EXPECT_EQ(carried, c.value) << token;
        } else {
            try {
                apply_override(s, c.key, c.value);
                ADD_FAILURE() << "accepted " << token;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
                    << token << ": " << e.what();
            }
            EXPECT_EQ(to_json(s), before) << token << " changed the scenario";
        }
    }
}

// A value unlike `text`, in the same field type.
std::string other_value(const std::string& text) {
    static const std::map<std::string, std::string> kOther = {
        {"true", "false"},          {"false", "true"},     {"trust_index", "majority_vote"},
        {"majority_vote", "trust_index"}, {"level0", "level2"}, {"off", "shadow"},
        {"static", "leach"}};
    if (const auto it = kOther.find(text); it != kOther.end()) return it->second;
    double v = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), v);
    return obs::json::number_to_string(v + 1.0);  // integers stay integers
}

TEST(Scenario, JsonRoundTripCarriesEveryField) {
    for (Scenario s : {Scenario::binary_defaults(), Scenario::location_defaults()}) {
        const std::vector<std::string> defaults = override_tokens(s);
        for (const std::string& token : defaults) {
            const auto eq = token.find('=');
            apply_override(s, token.substr(0, eq), other_value(token.substr(eq + 1)));
        }
        const std::vector<std::string> changed = override_tokens(s);
        ASSERT_EQ(changed.size(), defaults.size());
        for (std::size_t i = 0; i < changed.size(); ++i) EXPECT_NE(changed[i], defaults[i]);
        EXPECT_EQ(to_json(scenario_from_json_text(to_json(s))), to_json(s));
    }
}

// Bare leaves resolve by uniqueness within the kind's sections, so the
// field list may not repeat a leaf there.
TEST(Scenario, LeavesAreUniquePerKind) {
    for (const Scenario& s : {Scenario::binary_defaults(), Scenario::location_defaults()}) {
        std::set<std::string> leaves;
        for (const std::string& token : override_tokens(s)) {
            const std::string path = token.substr(0, token.find('='));
            EXPECT_TRUE(leaves.insert(path.substr(path.rfind('.') + 1)).second) << path;
        }
    }
}

// The pinned text of both kinds' defaults. Against the previous hand-written
// writer it differs only by design: engine.sensing_radius is gone (runners
// take r_s from deployment.sensing_radius) and engine.collusion is new;
// location.clustering and location.leach came later with LEACH runs.
constexpr const char* kSharedGoldenTail = R"(
  "channel": {
    "drop_probability": 0.01,
    "base_latency": 1e-04,
    "propagation_speed": 30000,
    "airtime": 0
  },
  "transport": {
    "ack_timeout": 0.05,
    "max_retries": 5,
    "ttl": 16
  },
  "check": {
    "mode": "off"
  },)";

TEST(Scenario, DefaultsJsonIsPinned) {
    const std::string binary = std::string(R"({
  "kind": "binary",
  "seed": 1,
  "engine": {
    "policy": "trust_index",
    "r_error": 5,
    "t_out": 1,
    "trust": {
      "lambda": 0.1,
      "fault_rate": -1,
      "removal_ti": 0
    },
    "collusion_defense": false,
    "collusion": {
      "epsilon": 0.05,
      "min_clique": 3,
      "conviction_count": 3
    },
    "trust_weighted_location": false
  },)") + kSharedGoldenTail + R"(
  "deployment": {
    "field": 40,
    "sensing_radius": 20
  },
  "faults": {
    "natural_error_rate": 0.01,
    "correct_sigma": 1.6,
    "missed_alarm_rate": 0.5,
    "false_alarm_rate": 0,
    "faulty_sigma": 4.25,
    "faulty_drop_rate": 0.25,
    "lower_ti": 0.5,
    "upper_ti": 0.8,
    "collusion_jitter": 0
  },
  "mobility": {
    "speed_min": 0.5,
    "speed_max": 1.5,
    "pause": 2,
    "tick": 0.5
  },)";
    const std::string location = std::string(R"({
  "kind": "location",
  "seed": 1,
  "engine": {
    "policy": "trust_index",
    "r_error": 5,
    "t_out": 1,
    "trust": {
      "lambda": 0.25,
      "fault_rate": 0.1,
      "removal_ti": 0.05
    },
    "collusion_defense": false,
    "collusion": {
      "epsilon": 0.05,
      "min_clique": 3,
      "conviction_count": 3
    },
    "trust_weighted_location": false
  },)") + kSharedGoldenTail + R"(
  "deployment": {
    "field": 100,
    "sensing_radius": 20
  },
  "faults": {
    "natural_error_rate": 0,
    "correct_sigma": 1.6,
    "missed_alarm_rate": 0.5,
    "false_alarm_rate": 0,
    "faulty_sigma": 4.25,
    "faulty_drop_rate": 0.25,
    "lower_ti": 0.5,
    "upper_ti": 0.8,
    "collusion_jitter": 0
  },
  "mobility": {
    "speed_min": 0.5,
    "speed_max": 1.5,
    "pause": 2,
    "tick": 1
  },)";
    const std::string workloads = R"(
  "campaign": {
    "degradations": [],
    "failovers": [],
    "compromises": [],
    "fault_shifts": []
  },
  "binary": {
    "n_nodes": 10,
    "pct_faulty": 0.4,
    "false_alarm_spread_touts": 2,
    "events": 100,
    "event_interval": 10,
    "use_shadows": false,
    "corrupt_ch": false,
    "reliable_reports": false
  },
  "location": {
    "n_nodes": 100,
    "grid_layout": true,
    "pct_faulty": 0.1,
    "fault_level": "level0",
    "multihop": false,
    "radio_range": 30,
    "mobile": false,
    "n_ch": 5,
    "rotation_period": 20,
    "events": 200,
    "event_interval": 10,
    "burst": 1,
    "tx_jitter": 0,
    "decay": false,
    "decay_initial": 0.05,
    "decay_step": 0.05,
    "decay_final": 0.75,
    "decay_epoch_events": 50,
    "epoch_events": 50,
    "clustering": "static",
    "leach": {
      "ch_fraction": 0.1,
      "round_duration": 100,
      "initial_energy": 1
    }
  }
})";
    EXPECT_EQ(to_json(Scenario::binary_defaults()), binary + workloads);
    EXPECT_EQ(to_json(Scenario::location_defaults()), location + workloads);
}

TEST(Scenario, FromJsonRejectsBadIntegersAndTypes) {
    const struct {
        const char* json;
        const char* needle;
    } cases[] = {
        {R"({"kind": "location", "location": {"n_nodes": -3}})", "location.n_nodes"},
        {R"({"kind": "location", "location": {"burst": 2.7}})", "location.burst"},
        {R"({"transport": {"ttl": 257}})", "transport.ttl"},
        {R"({"transport": {"max_retries": 1e10}})", "transport.max_retries"},
        {R"({"seed": 9007199254740994})", "seed"},  // 2^53 + 2
        {R"({"seed": "abc"})", "seed"},
        {R"({"engine": {"trust": {"lambda": "0.3"}}})", "engine.trust.lambda"},
        {R"({"engine": {"collusion_defense": 1}})", "engine.collusion_defense"},
        {R"({"engine": {"policy": "tibfit"}})", "engine.policy"},
        {R"({"check": {"mode": "loud"}})", "check.mode"},
        {R"({"kind": 3})", "kind"},
        // The campaign block reads by the same rules, element by element.
        {R"({"campaign": {"failovers": [{"kill_at": "soon"}]}})", "campaign.failovers[0].kill_at"},
        {R"({"campaign": {"failovers": [{}, {"warm_handoff": "yes"}]}})",
         "campaign.failovers[1].warm_handoff"},
        {R"({"campaign": {"compromises": [{"at": 1, "target_pct": null}]}})",
         "campaign.compromises[0].target_pct"},
        {R"({"campaign": {"degradations": {"start": 3}}})", "campaign.degradations expects an array"},
        {R"({"campaign": {"fault_shifts": null}})", "campaign.fault_shifts expects an array"},
        {R"({"campaign": {"failovers": [1, "x"]}})", "campaign.failovers[0] expects an object"},
        {R"({"campaign": []})", "campaign expects an object"},
    };
    for (const auto& c : cases) {
        try {
            scenario_from_json_text(c.json);
            ADD_FAILURE() << "accepted " << c.json;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
                << c.json << ": " << e.what();
        }
    }
    // The largest exact seed and unknown keys still load.
    const Scenario s =
        scenario_from_json_text(R"({"seed": 9007199254740992, "extra": {"x": 1}})");
    EXPECT_EQ(s.seed, 9007199254740992u);
}

// tibfit_cli builds a mode=location run as location_defaults() plus its
// pct_faulty=0.3 preset plus the user's keys; perfbench's multihop_shadow
// builds the same command line through the LocationConfig mapping.
TEST(Scenario, CliOverridesMatchTheLocationConfigMapping) {
    LocationConfig c;
    c.multihop = true;
    c.radio_range = 25.0;
    c.pct_faulty = 0.5;
    c.seed = 31;
    c.events = 40;
    Scenario via_shim = to_scenario(c);
    via_shim.check.mode = check::Mode::Assert;

    Scenario via_keys = Scenario::location_defaults();
    for (const auto& [k, v] : std::vector<std::pair<const char*, const char*>>{
             {"pct_faulty", "0.3"},  // the CLI preset
             {"multihop", "true"},
             {"radio_range", "25"},
             {"pct_faulty", "0.5"},
             {"check.mode", "assert"},
             {"seed", "31"},
             {"events", "40"}}) {
        apply_override(via_keys, k, v);
    }
    EXPECT_EQ(to_json(via_keys), to_json(via_shim));
    const LocationResult a = run_location_experiment(via_keys);
    const LocationResult b = run_location_experiment(via_shim);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.checked_decisions, b.checked_decisions);
    EXPECT_EQ(a.mean_ti_faulty, b.mean_ti_faulty);
}

// An example's knobs: Scenario leaves go through apply_override, the
// program's own values through the same strict parser.
TEST(Scenario, KnobsParseStrictlyIntoTheirTargets) {
    Scenario s = Scenario::binary_defaults();
    std::size_t steps = 12;
    double share = 0.33;
    const Knob knobs[] = {{"steps", &steps}, {"share", &share}, {"pct_faulty", &s}};
    apply_knob(knobs, "steps=40");
    apply_knob(knobs, "share=0.5");
    apply_knob(knobs, "pct_faulty=0.7");
    EXPECT_EQ(steps, 40u);
    EXPECT_EQ(share, 0.5);
    EXPECT_EQ(s.binary.pct_faulty, 0.7);
    for (const char* bad : {"steps=1.5", "steps=-3", "steps=", "share=inf", "share=6abc",
                            "pct_faulty=x", "stpes=5", "steps", "seed=1"}) {
        EXPECT_THROW(apply_knob(knobs, bad), std::invalid_argument) << bad;
    }
    EXPECT_EQ(steps, 40u);
    EXPECT_EQ(share, 0.5);
}

// Bench knobs of the wrong type exit 2 naming the knob instead of
// terminating on an uncaught exception. Never pass a negative events=
// here: a regression that let it through would allocate until killed.
TEST(BenchIoDeathTest, WrongTypedKnobsExitTwo) {
    const auto run = [](const char* arg, auto read) {
        char name[] = "bench_fig4";
        std::string token = arg;
        char* argv[] = {name, token.data()};
        BenchIo io("bench_fig4", 2, argv);
        read(io);
    };
    EXPECT_EXIT(run("events=abc", [](BenchIo& io) { io.option("events", 200, "events"); }),
                ::testing::ExitedWithCode(2),
                "bench_fig4: invalid value 'abc' for events= \\(expects an integer\\)");
    EXPECT_EXIT(run("events=1.5", [](BenchIo& io) { io.option("events", 200, "events"); }),
                ::testing::ExitedWithCode(2), "invalid value '1.5' for events=");
    EXPECT_EXIT(run("runs=abc", [](BenchIo& io) { io.trial_runs(5); }),
                ::testing::ExitedWithCode(2), "invalid value 'abc' for runs=");
    EXPECT_EXIT(run("lambda=x", [](BenchIo& io) { io.option("lambda", 0.1, "lambda"); }),
                ::testing::ExitedWithCode(2), "expects a number");
    EXPECT_EXIT(run("smoke=2", [](BenchIo& io) { io.option("smoke", false, "smoke"); }),
                ::testing::ExitedWithCode(2), "expects true or false");
    EXPECT_EXIT(run("n_nodes=-3", [](BenchIo& io) { io.option("n_nodes", 10, "nodes"); }),
                ::testing::ExitedWithCode(2), "invalid value '-3' for n_nodes=");
    EXPECT_EXIT(run("lambda=inf", [](BenchIo& io) { io.option("lambda", 0.1, "lambda"); }),
                ::testing::ExitedWithCode(2), "invalid value 'inf' for lambda=");
    EXPECT_EXIT(run("runs=-1", [](BenchIo& io) { io.trial_runs(5); }),
                ::testing::ExitedWithCode(2), "invalid value '-1' for runs=");
    EXPECT_EXIT(run("runs=0", [](BenchIo& io) { io.trial_runs(5); }),
                ::testing::ExitedWithCode(2),
                "invalid value '0' for runs= \\(expects a positive integer\\)");
}

// A flag missing its argument exits 2 naming the flag, instead of being
// dropped with no artifact written.
TEST(BenchIoDeathTest, FlagMissingItsArgumentExitsTwo) {
    const auto parse = [](std::vector<std::string> args) {
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        BenchIo io("bench_fig10", static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_EXIT(parse({"bench_fig10", "--csv", "--json"}), ::testing::ExitedWithCode(2),
                "bench_fig10: --json requires an argument");
    EXPECT_EXIT(parse({"bench_fig10", "--json="}), ::testing::ExitedWithCode(2),
                "bench_fig10: --json requires an argument");
    EXPECT_EXIT(parse({"bench_fig10", "runs=2", "--jobs"}), ::testing::ExitedWithCode(2),
                "bench_fig10: --jobs requires an argument");
}

Scenario tiny_binary() {
    Scenario s = Scenario::binary_defaults();
    s.binary.events = 20;
    s.seed = 5;
    return s;
}

// A series or representative token apply_override() rejects exits 2
// naming the token, before any trial runs.
TEST(BenchIoDeathTest, MalformedGridTokenExitsTwo) {
    char name[] = "bench_fig4";
    char* argv[] = {name};
    BenchIo io("bench_fig4", 1, argv);
    EXPECT_EXIT(io.faulty_table("t", tiny_binary(), {0.4}, {{"s", {"faulty_sigma=abc"}}}, 1),
                ::testing::ExitedWithCode(2),
                "bench_fig4: 'faulty_sigma=abc': scenario: faults.faulty_sigma expects");
    EXPECT_EXIT(io.decay_table("t", Scenario::location_defaults(), {{"s", {"radio_range"}}}, 1),
                ::testing::ExitedWithCode(2), "bench_fig4: 'radio_range': scenario:");
    EXPECT_EXIT(io.finish(tiny_binary(), {"pct_faulty=0.5", "sigma=2"}),
                ::testing::ExitedWithCode(2),
                "bench_fig4: 'sigma=2': scenario: unknown key 'sigma' for a binary scenario");
}

// The grid path emits exactly the table a bench used to lay out by hand:
// row-major cells, one mean_accuracies() list, 3 digits.
TEST(BenchIo, FaultyTableMatchesHandLaidTable) {
    char name[] = "bench_grid";
    char csv[] = "--csv";
    char* argv[] = {name, csv};
    BenchIo io("bench_grid", 2, argv);
    ::testing::internal::CaptureStdout();
    io.faulty_table("Grid: accuracy vs % faulty", tiny_binary(), {0.3, 0.8},
                    {{"TIBFIT", {"missed_alarm_rate=0.9"}},
                     {"Baseline", {"missed_alarm_rate=0.9", "policy=majority_vote"}}},
                    2);
    const std::string emitted = ::testing::internal::GetCapturedStdout();

    std::vector<Scenario> cells;
    for (const double p : {0.3, 0.8}) {
        Scenario tib = tiny_binary();
        tib.binary.pct_faulty = p;
        tib.faults.missed_alarm_rate = 0.9;
        Scenario base = tib;
        base.engine.policy = core::DecisionPolicy::MajorityVote;
        cells.insert(cells.end(), {tib, base});
    }
    const std::vector<double> acc = mean_accuracies(cells, 2);
    ASSERT_NE(acc[1], acc[2]) << "cells must tell row-major from column-major order";
    util::Table t("Grid: accuracy vs % faulty");
    t.header({"% faulty", "TIBFIT", "Baseline"});
    t.row_values({30.0, acc[0], acc[1]}, 3);
    t.row_values({80.0, acc[2], acc[3]}, 3);
    std::ostringstream want;
    t.print_csv(want);
    EXPECT_EQ(emitted, want.str());
}

// finish(base, tokens) echoes each token into the artifact as typed, not
// re-rendered from the field it set.
TEST(BenchIo, FinishEchoesTokensAsTyped) {
    const std::string path = ::testing::TempDir() + "bench_io_finish_echo.json";
    std::string name = "bench_grid", flag = "--json", where = path, knob = "pct_faulty=0.9";
    char* argv[] = {name.data(), flag.data(), where.data(), knob.data()};
    BenchIo io("bench_grid", 4, argv);
    ASSERT_EQ(
        io.finish(tiny_binary(), {"pct_faulty=0.50", "correct_sigma=2.0", "policy=majority_vote"}),
        0);
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    const obs::json::Value doc = obs::json::parse(text);
    const obs::json::Value* params = doc.find("params");
    ASSERT_NE(params, nullptr);
    const std::map<std::string, std::string> want = {
        {"pct_faulty", "0.50"}, {"correct_sigma", "2.0"}, {"policy", "majority_vote"}};
    for (const auto& [key, value] : want) {
        const obs::json::Value* v = params->find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(v->as_string(), value) << key;
    }
}

// A knob that parses but leaves a scenario invalid exits 2 with the
// validate() messages, under the bench's name, before anything runs.
TEST(BenchIoDeathTest, InvalidScenarioExitsTwo) {
    Scenario ok = Scenario::binary_defaults();
    Scenario bad = ok;
    bad.binary.events = 0;
    const std::vector<Scenario> cells{ok, bad, ok};
    char name[] = "bench_fig2";
    char* argv[] = {name};
    const BenchIo io("bench_fig2", 1, argv);
    io.require_valid({&ok, 1});  // returns
    EXPECT_EXIT(io.require_valid(cells), ::testing::ExitedWithCode(2),
                "bench_fig2: scenario: binary events must be >= 1");
    EXPECT_EXIT(require_valid("/some/dir/self_organizing", cells), ::testing::ExitedWithCode(2),
                "^self_organizing: scenario: binary events must be >= 1");
}

// A bench that declares no option still names a key it does not read.
TEST(BenchIoDeathTest, UndeclaredKnobWarns) {
    char name[] = "bench_fig3";
    char token[] = "evnets=5";
    char* argv[] = {name, token};
    EXPECT_EXIT(
        {
            BenchIo io("bench_fig3", 2, argv);
            io.trial_runs(30);
            std::exit(io.finish());
        },
        ::testing::ExitedWithCode(0), "bench_fig3: warning: unrecognised parameter 'evnets='");
}

}  // namespace
}  // namespace tibfit::exp
