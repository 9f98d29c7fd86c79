// tibfit_cli — run any TIBFIT experiment from the command line.
//
// Every knob of the experiment harness is exposed as key=value pairs, so
// new parameter studies need no recompilation:
//
//   ./tibfit_cli mode=binary pct_faulty=0.7 events=200 runs=10
//   ./tibfit_cli mode=location level=2 pct_faulty=0.5 policy=baseline
//   ./tibfit_cli mode=decay decay_final=0.75 epoch_events=50
//
// Prints one result row (or the per-epoch series for mode=decay). Keys not
// given keep the paper's Table-1/Table-2 defaults. `list=true` prints all
// recognized keys.
//
// Observability: `--metrics <path>` writes the run's metrics registry as a
// human-readable summary; `--trace <path>` writes the structured decision
// trace as JSONL (see docs/OBSERVABILITY.md).
//
// Parallelism: with runs>1 the replications fan out across threads —
// `--jobs <n>` or env TIBFIT_JOBS picks the width (default: hardware
// concurrency) and the printed mean is bit-identical at any value (see
// docs/PARALLELISM.md).
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/config.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "util/config.h"
#include "util/invariant.h"

namespace {

using namespace tibfit;

void print_keys() {
    std::printf(
        "common:   mode=binary|location|decay  seed=<u64>  runs=<n>  events=<n>\n"
        "          policy=tibfit|baseline  pct_faulty=<0..1>  t_out=<s>\n"
        "binary:   n_nodes  correct_ner  missed_alarm_rate  false_alarm_rate\n"
        "          lambda  fault_rate  removal_ti  channel_drop\n"
        "location: level=0|1|2  correct_sigma  faulty_sigma  faulty_drop_rate\n"
        "          lambda  fault_rate  removal_ti  r_error  sensing_radius\n"
        "          n_ch  rotation_period  burst  grid=true|false\n"
        "          collusion_defense=true|false  multihop=true|false  radio_range\n"
        "          mobile=true|false  speed_min  speed_max\n"
        "decay:    decay_initial  decay_step  decay_final  epoch_events\n"
        "checking: check=off|shadow|assert (differential oracle + invariants;\n"
        "          see docs/CHECKING.md — shadow counts divergences, assert\n"
        "          aborts on the first one; exit code 1 on any divergence)\n"
        "flags:    --metrics <path> (metrics summary)  --trace <path> (JSONL trace)\n"
        "          --jobs <n> (threads for runs>1 sweeps; env TIBFIT_JOBS;\n"
        "          results are identical at any value)\n");
}

void apply_jobs(std::string_view value) {
    if (const auto n = par::parse_jobs(value)) {
        par::set_jobs(*n);
        return;
    }
    std::fprintf(stderr, "tibfit_cli: ignoring invalid --jobs value '%.*s'\n",
                 static_cast<int>(value.size()), value.data());
}

core::DecisionPolicy parse_policy(const std::string& s) {
    return s == "baseline" ? core::DecisionPolicy::MajorityVote
                           : core::DecisionPolicy::TrustIndex;
}

sensor::NodeClass parse_level(long level) {
    switch (level) {
        case 1: return sensor::NodeClass::Level1;
        case 2: return sensor::NodeClass::Level2;
        default: return sensor::NodeClass::Level0;
    }
}

/// Reports the self-check tallies after an instrumented run; the exit
/// code turns nonzero on any oracle divergence so scripts can gate on it.
int report_check(check::Mode mode, const exp::RunResult& r) {
    if (mode == check::Mode::Off) return 0;
    std::printf("check: mode=%s checked=%zu divergences=%zu invariant_violations=%llu\n",
                check::mode_name(mode), r.checked_decisions, r.oracle_divergences,
                static_cast<unsigned long long>(util::invariant_violations()));
    return r.oracle_divergences ? 1 : 0;
}

exp::Scenario binary_scenario(const util::Config& args) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.binary.n_nodes = static_cast<std::size_t>(args.get_int("n_nodes", 10));
    s.binary.pct_faulty = args.get_double("pct_faulty", 0.5);
    s.faults.natural_error_rate = args.get_double("correct_ner", 0.01);
    s.faults.missed_alarm_rate = args.get_double("missed_alarm_rate", 0.5);
    s.faults.false_alarm_rate = args.get_double("false_alarm_rate", 0.0);
    s.binary.events = static_cast<std::size_t>(args.get_int("events", 100));
    s.engine.policy = parse_policy(args.get_string("policy", "tibfit"));
    s.engine.trust.lambda = args.get_double("lambda", 0.1);
    s.engine.trust.fault_rate = args.get_double("fault_rate", -1.0);
    s.engine.trust.removal_ti = args.get_double("removal_ti", 0.0);
    s.engine.t_out = args.get_double("t_out", 1.0);
    s.channel.drop_probability = args.get_double("channel_drop", 0.0);
    s.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    return s;
}

exp::Scenario location_scenario(const util::Config& args, bool decay) {
    exp::Scenario s = exp::Scenario::location_defaults();
    s.location.n_nodes = static_cast<std::size_t>(args.get_int("n_nodes", 100));
    s.location.grid_layout = args.get_bool("grid", true);
    s.deployment.sensing_radius = args.get_double("sensing_radius", 20.0);
    s.engine.r_error = args.get_double("r_error", 5.0);
    s.engine.t_out = args.get_double("t_out", 1.0);
    s.location.pct_faulty = args.get_double("pct_faulty", 0.3);
    s.location.fault_level = parse_level(args.get_int("level", 0));
    s.faults.correct_sigma = args.get_double("correct_sigma", 1.6);
    s.faults.faulty_sigma = args.get_double("faulty_sigma", 4.25);
    s.faults.faulty_drop_rate = args.get_double("faulty_drop_rate", 0.25);
    s.engine.policy = parse_policy(args.get_string("policy", "tibfit"));
    s.engine.trust.lambda = args.get_double("lambda", 0.25);
    s.engine.trust.fault_rate = args.get_double("fault_rate", 0.1);
    s.engine.trust.removal_ti = args.get_double("removal_ti", 0.05);
    s.engine.collusion_defense = args.get_bool("collusion_defense", false);
    s.faults.collusion_jitter = args.get_double("collusion_jitter", 0.0);
    s.engine.trust_weighted_location = args.get_bool("weighted_location", false);
    s.location.multihop = args.get_bool("multihop", false);
    s.location.radio_range = args.get_double("radio_range", 30.0);
    s.location.mobile = args.get_bool("mobile", false);
    s.mobility.speed_min = args.get_double("speed_min", 0.5);
    s.mobility.speed_max = args.get_double("speed_max", 1.5);
    s.location.n_ch = static_cast<std::size_t>(args.get_int("n_ch", 5));
    s.location.rotation_period = static_cast<std::size_t>(args.get_int("rotation_period", 20));
    s.location.events = static_cast<std::size_t>(args.get_int("events", 200));
    s.location.burst = static_cast<std::size_t>(args.get_int("burst", 1));
    s.channel.drop_probability = args.get_double("channel_drop", 0.01);
    s.channel.airtime = args.get_double("channel_airtime", 0.0);
    s.location.tx_jitter = args.get_double("tx_jitter", 0.0);
    s.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    s.location.epoch_events = static_cast<std::size_t>(args.get_int("epoch_events", 50));
    if (decay) {
        s.location.decay = true;
        s.location.decay_initial = args.get_double("decay_initial", 0.05);
        s.location.decay_step = args.get_double("decay_step", 0.05);
        s.location.decay_final = args.get_double("decay_final", 0.75);
        s.location.decay_epoch_events = s.location.epoch_events;
    }
    return s;
}

/// Runs the scenario and prints its result row (or, for mode=decay, the
/// per-epoch series); with runs>1 prints the mean accuracy instead.
int run(const std::string& mode, const util::Config& args, const exp::Scenario& s) {
    const auto runs = static_cast<std::size_t>(args.get_int("runs", 1));
    if (mode != "decay" && runs > 1) {
        std::printf("accuracy (mean of %zu runs): %.4f\n", runs, exp::mean_accuracy(s, runs));
        return 0;
    }
    if (mode == "binary") {
        const auto r = exp::run_binary_experiment(s);
        std::printf("accuracy=%.4f detection=%.4f events=%zu detected=%zu "
                    "phantom_windows=%zu phantoms_declared=%zu ti_correct=%.3f ti_faulty=%.3f\n",
                    r.accuracy, r.detection_rate, r.events, r.detected, r.false_alarm_windows,
                    r.phantoms_declared, r.mean_ti_correct, r.mean_ti_faulty);
        return report_check(s.check.mode, r);
    }
    const auto r = exp::run_location_experiment(s);
    if (mode == "location") {
        std::printf("accuracy=%.4f events=%zu detected=%zu false_positives=%zu isolated=%zu "
                    "ti_correct=%.3f ti_faulty=%.3f\n",
                    r.accuracy, r.events, r.detected, r.false_positives, r.isolated,
                    r.mean_ti_correct, r.mean_ti_faulty);
        return report_check(s.check.mode, r);
    }
    const exp::LocationWorkload& wl = s.location;
    std::printf("epoch  %%compromised  accuracy\n");
    for (std::size_t e = 0; e < r.epoch_accuracy.size(); ++e) {
        std::printf("%4zu   %6.1f%%      %.4f\n", e + 1,
                    100.0 * (wl.decay_initial + wl.decay_step * static_cast<double>(e)),
                    r.epoch_accuracy[e]);
    }
    std::printf("overall accuracy=%.4f isolated=%zu\n", r.accuracy, r.isolated);
    return report_check(s.check.mode, r);
}

}  // namespace

int main(int argc, char** argv) {
    // Peel off the observability flags before the key=value parse; a bare
    // `--trace=...` token would otherwise be swallowed as an assignment.
    std::string metrics_path, trace_path;
    std::vector<char*> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        if (a == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (a.rfind("--metrics=", 0) == 0) {
            metrics_path = a.substr(std::string_view("--metrics=").size());
        } else if (a == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (a.rfind("--trace=", 0) == 0) {
            trace_path = a.substr(std::string_view("--trace=").size());
        } else if (a == "--jobs" && i + 1 < argc) {
            apply_jobs(argv[++i]);
        } else if (a.rfind("--jobs=", 0) == 0) {
            apply_jobs(a.substr(std::string_view("--jobs=").size()));
        } else if (a == "--metrics" || a == "--trace" || a == "--jobs") {
            std::fprintf(stderr, "%s requires an argument\n", argv[i]);
            return 2;
        } else {
            rest.push_back(argv[i]);
        }
    }
    util::Config args;
    args.parse_args(static_cast<int>(rest.size()), rest.data());
    if (args.get_bool("list", false)) {
        print_keys();
        return 0;
    }

    obs::Recorder recorder;
    obs::Recorder* rec = nullptr;
    if (!metrics_path.empty() || !trace_path.empty()) {
        rec = &recorder;
        recorder.trace().set_enabled(!trace_path.empty());
    }

    check::Mode check_mode;
    try {
        check_mode = check::mode_from_name(args.get_string("check", "off"));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s (check=off|shadow|assert)\n", e.what());
        return 2;
    }

    const std::string mode = args.get_string("mode", "location");
    if (mode != "binary" && mode != "location" && mode != "decay") {
        std::fprintf(stderr, "unknown mode '%s' (binary|location|decay)\n", mode.c_str());
        print_keys();
        return 2;
    }
    exp::Scenario s =
        mode == "binary" ? binary_scenario(args) : location_scenario(args, mode == "decay");
    s.recorder = rec;
    s.check.mode = check_mode;
    int rc;
    try {
        rc = run(mode, args, s);
    } catch (const std::invalid_argument& e) {
        // Scenario::validate() rejected the knobs, one message per line.
        // Caught first: invalid_argument is itself a logic_error.
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    } catch (const std::logic_error& e) {
        // check=assert aborts the run on the first divergence or
        // invariant violation.
        std::fprintf(stderr, "check failed: %s\n", e.what());
        return 1;
    }
    if (rc != 0) return rc;

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out) {
            std::fprintf(stderr, "cannot open metrics file '%s'\n", metrics_path.c_str());
            return 1;
        }
        recorder.metrics().write_summary(out);
        std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open trace file '%s'\n", trace_path.c_str());
            return 1;
        }
        recorder.trace().write_jsonl(out);
        std::printf("trace written to %s (%zu records)\n", trace_path.c_str(),
                    recorder.trace().size());
    }
    return 0;
}
