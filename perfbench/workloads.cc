#include "workloads.h"

#include <cstdio>
#include <stdexcept>

#include "exp/location_experiment.h"
#include "util/table.h"

namespace perfbench {

namespace {

using tibfit::core::DecisionPolicy;
using tibfit::exp::Scenario;

std::string table_cell(double mean) { return tibfit::util::Table::num(mean, 3); }

std::string cli_mean(double mean) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", mean);
    return buf;
}

// bench/bench_fig4.cc: 6 compromise levels x 4 series.
Workload fig4(std::uint64_t seed, std::size_t runs) {
    Workload w{"fig4_location", {}, runs, {}, table_cell};
    Scenario base = Scenario::location_defaults();
    base.location.fault_level = tibfit::sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = seed;
    struct Series {
        double cs, fs;
        DecisionPolicy policy;
    };
    const Series series[] = {{1.6, 4.25, DecisionPolicy::TrustIndex},
                             {1.6, 4.25, DecisionPolicy::MajorityVote},
                             {2.0, 6.0, DecisionPolicy::TrustIndex},
                             {2.0, 6.0, DecisionPolicy::MajorityVote}};
    for (double p : {0.10, 0.20, 0.30, 0.40, 0.50, 0.58}) {
        for (const auto& s : series) {
            Scenario sc = base;
            sc.location.pct_faulty = p;
            sc.faults.correct_sigma = s.cs;
            sc.faults.faulty_sigma = s.fs;
            sc.engine.policy = s.policy;
            w.cells.push_back(sc);
        }
    }
    w.representative = base;
    w.representative.location.pct_faulty = 0.3;
    return w;
}

// bench/bench_fig2.cc: 6 compromise levels x (3 NERs + baseline).
Workload fig2(std::uint64_t seed, std::size_t runs) {
    Workload w{"fig2_binary", {}, runs, {}, table_cell};
    Scenario base = Scenario::binary_defaults();
    base.binary.n_nodes = 10;
    base.binary.events = 100;
    base.engine.trust.lambda = 0.1;
    base.faults.missed_alarm_rate = 0.5;
    base.faults.false_alarm_rate = 0.0;
    base.channel.drop_probability = 0.0;
    base.seed = seed;
    for (double p : {0.40, 0.50, 0.60, 0.70, 0.80, 0.90}) {
        for (double ner : {0.00, 0.01, 0.05}) {
            Scenario s = base;
            s.binary.pct_faulty = p;
            s.faults.natural_error_rate = ner;
            w.cells.push_back(s);
        }
        Scenario b = base;
        b.binary.pct_faulty = p;
        b.faults.natural_error_rate = 0.01;
        b.engine.policy = DecisionPolicy::MajorityVote;
        w.cells.push_back(b);
    }
    w.representative = base;
    w.representative.binary.pct_faulty = 0.5;
    w.representative.faults.natural_error_rate = 0.01;
    return w;
}

// examples/tibfit_cli.cpp: mode=location multihop=true radio_range=25
// pct_faulty=0.5 check=assert; every other key at the CLI default.
Workload multihop(std::uint64_t seed, std::size_t runs) {
    Workload w{"multihop_shadow", {}, runs, {}, cli_mean};
    tibfit::exp::LocationConfig c;
    c.multihop = true;
    c.radio_range = 25.0;
    c.pct_faulty = 0.5;
    c.seed = seed;
    Scenario s = tibfit::exp::to_scenario(c);
    s.check.mode = tibfit::check::Mode::Assert;
    w.cells.push_back(s);
    w.representative = s;
    return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t runs) {
    if (name == "fig4_location") return fig4(seed, runs);
    if (name == "fig2_binary") return fig2(seed, runs);
    if (name == "multihop_shadow") return multihop(seed, runs);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
