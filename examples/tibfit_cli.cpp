// tibfit_cli — run any TIBFIT experiment from the command line.
//
// Every serialized exp::Scenario field is a key=value knob (its JSON path,
// or its leaf name), so new parameter studies need no recompilation:
//
//   ./tibfit_cli mode=binary pct_faulty=0.7 events=200 runs=10
//   ./tibfit_cli mode=location level=2 pct_faulty=0.5 policy=baseline
//   ./tibfit_cli mode=decay decay_final=0.75 engine.trust.lambda=0.3
//
// Prints one result row (or the per-epoch series for mode=decay). Keys not
// given keep the paper's Table-1/Table-2 defaults; unknown keys and
// malformed values exit 2. `list=true` prints every path with its value.
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
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/config.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "util/invariant.h"

namespace {

using namespace tibfit;

/// Knob spellings from before keys addressed Scenario fields, rewritten
/// as token prefixes (`level=2` becomes `fault_level=level2`).
constexpr std::pair<std::string_view, std::string_view> kRenames[] = {
    {"correct_ner=", "natural_error_rate="},
    {"channel_drop=", "drop_probability="},
    {"channel_airtime=", "airtime="},
    {"grid=", "grid_layout="},
    {"weighted_location=", "trust_weighted_location="},
    {"check=", "check.mode="},
    {"level=", "fault_level=level"},
    {"policy=tibfit", "policy=trust_index"},
    {"policy=baseline", "policy=majority_vote"},
};

void apply_jobs(std::string_view value) {
    if (const auto n = par::parse_jobs(value)) {
        par::set_jobs(*n);
        return;
    }
    std::fprintf(stderr, "tibfit_cli: ignoring invalid --jobs value '%.*s'\n",
                 static_cast<int>(value.size()), value.data());
}

/// Applies one `key=value` token through the legacy renames; returns the
/// resolved Scenario path. Throws std::invalid_argument.
std::string_view apply_token(exp::Scenario& s, std::string_view token) {
    std::string renamed(token);
    for (const auto& [legacy, name] : kRenames) {
        if (token.starts_with(legacy)) renamed = std::string(name) += token.substr(legacy.size());
    }
    const std::string_view t = renamed;
    const auto eq = t.find('=');
    return exp::apply_override(s, t.substr(0, eq), eq == t.npos ? "" : t.substr(eq + 1));
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

/// Runs the scenario and prints its result row (or, for mode=decay, the
/// per-epoch series); with runs>1 prints the mean accuracy instead.
int run(std::string_view mode, std::size_t runs, const exp::Scenario& s) {
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
    // Flags first: a bare `--trace=...` token would otherwise read as a
    // key=value knob. mode=, runs= and list= are the CLI's own keys.
    std::string metrics_path, trace_path;
    std::vector<std::string_view> knobs;
    std::string_view mode = "location";
    std::size_t runs = 1;
    bool list = false;
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
        } else if (a.starts_with("mode=")) {
            mode = a.substr(5);
        } else if (a.starts_with("runs=")) {
            const auto n = par::parse_jobs(a.substr(5));  // a whole positive count, like --jobs
            if (!n) {
                std::fprintf(stderr, "tibfit_cli: runs expects a positive integer, got '%s'\n",
                             argv[i] + 5);
                return 2;
            }
            runs = *n;
        } else if (a == "list=true" || a == "list=false") {
            list = a == "list=true";
        } else {
            knobs.push_back(a);
        }
    }
    if (mode != "binary" && mode != "location" && mode != "decay") {
        std::fprintf(stderr, "tibfit_cli: unknown mode '%.*s' (binary|location|decay)\n",
                     static_cast<int>(mode.size()), mode.data());
        return 2;
    }

    // The kind's defaults, the CLI's own defaults where they differ from
    // Scenario::*_defaults(), then the user's knobs in order.
    const bool binary = mode == "binary", decay = mode == "decay";
    exp::Scenario s =
        binary ? exp::Scenario::binary_defaults() : exp::Scenario::location_defaults();
    std::vector<std::string_view> tokens = {"pct_faulty=0.3"};
    if (binary) tokens = {"pct_faulty=0.5", "drop_probability=0"};
    if (decay) tokens.push_back("decay=true");
    tokens.insert(tokens.end(), knobs.begin(), knobs.end());
    bool decay_epochs_given = false;
    for (std::string_view token : tokens) {
        try {
            decay_epochs_given |= apply_token(s, token) == "location.decay_epoch_events";
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "tibfit_cli: '%.*s': %s\n", static_cast<int>(token.size()),
                         token.data(), e.what());
            return 2;
        }
    }
    // Decay epochs follow the reporting epochs unless given.
    if (decay && !decay_epochs_given) s.location.decay_epoch_events = s.location.epoch_events;
    if (list) {
        for (const std::string& token : exp::override_tokens(s)) std::puts(token.c_str());
        return 0;
    }

    obs::Recorder recorder;
    if (!metrics_path.empty() || !trace_path.empty()) {
        s.recorder = &recorder;
        recorder.trace().set_enabled(!trace_path.empty());
    }
    int rc;
    try {
        rc = run(mode, runs, s);
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
