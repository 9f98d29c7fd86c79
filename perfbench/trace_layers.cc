// trace_layers — the benchmark's traced run.
//
//   trace_layers --workload <name> --seed <program seed> --runs <n>
//                [--jobs <n>] [--seconds <budget>]
//
// Runs every trial of the workload's output cells in-process through the
// public exp API, times each call from here, and reads the work counts
// from the obs::Recorder registry the trials fill. Then it times single
// layers through the replays in replays.h. Prints one JSON object:
//
//   {"build": {...}, "cells": ["0.949", ...], "errors": [...],
//    "metrics": {"exp.trial_ms.p50": 18.2, ...}}
//
// "cells" are the per-cell means rendered as the figure command prints
// them (run.py checks them against the golden bytes). "errors" lists every
// self-check that failed: the two traced passes, the two untraced passes
// and the jobs=1 versus jobs=N pass must give bit-identical counts and
// means. Exit code 0 unless the arguments are bad or a trial throws.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "replays.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace tibfit;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
}

/// Everything a registry counts, in comparable form. Histograms compare by
/// sample count: their running moments merge in floating point, whose
/// grouping differs between a serial and a merged parallel pass.
struct Ledger {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::size_t> histograms;

    std::uint64_t counter(const char* name) const {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
    double gauge(const char* name) const {
        const auto it = gauges.find(name);
        return it == gauges.end() ? 0.0 : it->second;
    }
};

Ledger snapshot(const obs::Registry& registry) {
    obs::MemorySink sink;
    registry.emit(sink);
    return {sink.counters, sink.gauges, sink.histogram_counts};
}

/// Names every entry on which two ledgers disagree.
void diff_ledgers(const Ledger& a, const Ledger& b, const std::string& what,
                  std::vector<std::string>& errors) {
    auto diff = [&](const auto& x, const auto& y, const char* kind) {
        for (const auto& [name, value] : x) {
            const auto it = y.find(name);
            if (it == y.end() || !(it->second == value)) {
                errors.push_back(what + ": " + kind + " " + name + " differs");
            }
        }
        for (const auto& [name, value] : y) {
            if (!x.count(name)) errors.push_back(what + ": " + kind + " " + name + " missing");
        }
    };
    diff(a.counters, b.counters, "counter");
    diff(a.gauges, b.gauges, "gauge");
    diff(a.histograms, b.histograms, "histogram");
}

double run_trial(const exp::Scenario& s) {
    return s.kind == exp::Scenario::Kind::Binary ? exp::run_binary_experiment(s).accuracy
                                                 : exp::run_location_experiment(s).accuracy;
}

/// One jobs=1 pass over every trial of every cell, calling
/// run_*_experiment directly with the seeds exp::mean_accuracy derives.
struct SerialPass {
    std::vector<double> trial_s;
    std::vector<double> cell_means;
    std::uint64_t allocations = 0;
    Ledger ledger;
};

SerialPass run_serial(const perfbench::Workload& w, bool traced) {
    SerialPass pass;
    obs::Registry merged;
    const std::uint64_t a0 = perfbench::allocations();
    for (const exp::Scenario& cell : w.cells) {
        double total = 0.0;
        for (std::size_t r = 0; r < w.runs; ++r) {
            exp::Scenario s = cell;
            s.seed = util::derive_trial_seed(cell.seed, r);
            std::unique_ptr<obs::Recorder> rec;
            if (traced) {
                rec = std::make_unique<obs::Recorder>();
                rec->trace().set_enabled(true);
                s.recorder = rec.get();
            }
            const auto t0 = Clock::now();
            total += run_trial(s);
            pass.trial_s.push_back(since(t0));
            if (rec) merged.merge(rec->metrics());
        }
        pass.cell_means.push_back(total / static_cast<double>(w.runs));
    }
    pass.allocations = perfbench::allocations() - a0;
    pass.ledger = snapshot(merged);
    return pass;
}

/// One pass through exp::mean_accuracy per cell at `jobs` threads — the
/// figure command's own scheduling.
struct ParallelPass {
    std::vector<double> cell_s;
    std::vector<double> cell_means;
    Ledger ledger;
};

ParallelPass run_parallel(const perfbench::Workload& w, std::size_t jobs, bool counted) {
    par::set_jobs(jobs);
    ParallelPass pass;
    obs::Registry merged;
    for (const exp::Scenario& cell : w.cells) {
        exp::Scenario s = cell;
        obs::Recorder rec;
        if (counted) s.recorder = &rec;
        const auto t0 = Clock::now();
        pass.cell_means.push_back(exp::mean_accuracy(s, w.runs));
        pass.cell_s.push_back(since(t0));
        merged.merge(rec.metrics());
    }
    pass.ledger = snapshot(merged);
    return pass;
}

void compare_means(const std::vector<double>& a, const std::vector<double>& b,
                   const std::string& what, std::vector<std::string>& errors) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i >= b.size() || std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
            errors.push_back(what + ": cell " + std::to_string(i) + " mean differs");
        }
    }
}

void print_json_string(const std::string& s) {
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\') std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

struct Args {
    std::string workload;
    std::uint64_t seed = 20050628;
    std::size_t runs = 0;
    std::size_t jobs = 4;
    double seconds = 10.0;
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        if (key == "--workload") {
            a.workload = v;
        } else if (key == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (key == "--runs") {
            a.runs = std::strtoul(v, nullptr, 10);
        } else if (key == "--jobs") {
            a.jobs = std::strtoul(v, nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.runs > 0 && a.jobs > 0 && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: trace_layers --workload <name> --seed <n> --runs <n> "
                     "[--jobs <n>] [--seconds <s>]\n");
        return 2;
    }
    const auto start = Clock::now();
    std::vector<std::string> errors;
    std::map<std::string, double> m;
    std::vector<std::string> cells;
    try {
        const perfbench::Workload w = perfbench::make_workload(args.workload, args.seed, args.runs);
        const double trials = static_cast<double>(w.cells.size() * w.runs);

        // Warm-up: one trial per cell, so lazily built state and cold
        // caches land in neither the timings nor the allocation counts.
        for (const exp::Scenario& cell : w.cells) run_trial(cell);

        const SerialPass untraced1 = run_serial(w, false);
        const SerialPass traced1 = run_serial(w, true);
        const SerialPass traced2 = run_serial(w, true);
        const ParallelPass counted = run_parallel(w, args.jobs, true);
        const SerialPass untraced2 = run_serial(w, false);

        diff_ledgers(traced1.ledger, traced2.ledger, "two traced runs", errors);
        diff_ledgers(traced1.ledger, counted.ledger,
                     "jobs=1 vs jobs=" + std::to_string(args.jobs), errors);
        if (untraced1.allocations != untraced2.allocations) {
            errors.push_back("untraced runs: allocation counts differ (" +
                             std::to_string(untraced1.allocations) + " vs " +
                             std::to_string(untraced2.allocations) + ")");
        }
        if (traced1.allocations != traced2.allocations) {
            errors.push_back("two traced runs: allocation counts differ");
        }
        compare_means(untraced1.cell_means, untraced2.cell_means, "untraced runs", errors);
        compare_means(untraced1.cell_means, traced1.cell_means, "traced vs untraced", errors);
        compare_means(untraced1.cell_means, counted.cell_means,
                      "jobs=1 vs jobs=" + std::to_string(args.jobs), errors);
        for (double mean : untraced1.cell_means) cells.push_back(w.format(mean));

        // Whatever the fixed passes left of the budget goes to the
        // time-bounded measurements below.
        const double left = std::max(1.0, args.seconds - since(start));

        std::vector<double> pass_s, cell_ms;
        const auto t_par = Clock::now();
        while (pass_s.size() < 3 || since(t_par) < 0.3 * left) {
            const ParallelPass p = run_parallel(w, args.jobs, false);
            pass_s.push_back(sum(p.cell_s));
            for (double s : p.cell_s) cell_ms.push_back(1e3 * s);
        }
        const double busy = 0.5 * (sum(untraced1.trial_s) + sum(untraced2.trial_s));

        std::vector<double> trial_ms;
        for (const auto* p : {&untraced1, &untraced2}) {
            for (double s : p->trial_s) trial_ms.push_back(1e3 * s);
        }

        const Ledger& l = traced1.ledger;
        const double reports = static_cast<double>(l.counter(obs::metric::kClusterReportsReceived));
        const double decisions = static_cast<double>(l.counter(obs::metric::kClusterDecisions));
        const double delivered = static_cast<double>(l.counter(obs::metric::kChannelDelivered));
        const double high_water = l.gauge(obs::metric::kSimQueueHighWater);

        const auto sim = perfbench::replay_sim(static_cast<std::size_t>(high_water), 0.15 * left);
        const auto ids = static_cast<std::size_t>(std::lround(decisions > 0 ? reports / decisions : 0));
        const auto net = perfbench::replay_net(w.representative, ids, 0.15 * left);
        const auto core = perfbench::replay_core(w.representative, args.seed, 0.4 * left);

        m["par.efficiency"] = busy / (static_cast<double>(args.jobs) * quantile(pass_s, 0.5));
        m["par.cell_wall_ms.p50"] = quantile(cell_ms, 0.5);
        m["par.cell_wall_ms.p90"] = quantile(cell_ms, 0.9);
        m["exp.trial_ms.p50"] = quantile(trial_ms, 0.5);
        m["exp.trial_ms.p90"] = quantile(trial_ms, 0.9);
        m["exp.allocs_per_trial"] = static_cast<double>(untraced1.allocations) / trials;
        m["sim.events_per_trial"] =
            static_cast<double>(l.counter(obs::metric::kSimEventsExecuted)) / trials;
        m["sim.queue_high_water"] = high_water;
        m["sim.ns_per_event"] = sim.ns_per_event;
        m["sim.allocs_per_event"] = sim.allocs_per_event;
        m["net.deliveries_per_trial"] = delivered / trials;
        m["net.fanout_per_report"] = reports > 0 ? delivered / reports : 0.0;
        m["net.us_per_broadcast"] = net.us_per_broadcast;
        m["net.allocs_per_delivery"] = net.allocs_per_delivery;
        m["net.transport.forwarded_per_trial"] =
            static_cast<double>(l.counter(obs::metric::kTransportForwarded)) / trials;
        m["net.transport.retransmissions_per_trial"] =
            static_cast<double>(l.counter(obs::metric::kTransportRetransmissions)) / trials;
        m["cluster.reports_per_trial"] = reports / trials;
        m["cluster.decisions_per_trial"] = decisions / trials;
        m["core.us_per_decision"] = core.us_per_decision;
        m["core.clusterer.us_per_call"] = core.clusterer_us_per_call;
        m["trust.ns_per_cti"] = core.ns_per_cti;
        m["trust.updates_per_trial"] =
            static_cast<double>(l.counter(obs::metric::kTrustPenalties) +
                                l.counter(obs::metric::kTrustRewards)) /
            trials;
        m["check.overhead_ratio"] = core.check_overhead_ratio;
        m["check.decisions_checked_per_trial"] =
            static_cast<double>(l.counter(obs::metric::kCheckDecisionsChecked)) / trials;
        m["obs.trace_overhead_ratio"] = (sum(traced1.trial_s) + sum(traced2.trial_s)) /
                                        (sum(untraced1.trial_s) + sum(untraced2.trial_s));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "trace_layers: %s\n", e.what());
        return 1;
    }

#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("{\"build\": {\"type\": ");
    print_json_string(PERFBENCH_BUILD_TYPE);
    std::printf(", \"compiler\": ");
    print_json_string(__VERSION__);
    std::printf(", \"ndebug\": %s, \"optimized\": %s}, \"cells\": [", ndebug ? "true" : "false",
                optimized ? "true" : "false");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i) std::printf(", ");
        print_json_string(cells[i]);
    }
    std::printf("], \"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i) std::printf(", ");
        print_json_string(errors[i]);
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : m) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
