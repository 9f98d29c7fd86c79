// Figure 4 — Experiment 2, location determination, level-0 faulty nodes.
// Accuracy vs. percentage compromised (10%..58%) for TIBFIT and the
// baseline, with the paper's two sigma pairings (legend "Lvl 0 W-Z"):
// correct sigma 1.6 / faulty 4.25 and correct 2.0 / faulty 6.0.
// 100 nodes on a 100x100 grid, r_error = 5, lambda = 0.25, f_r = 0.1,
// faulty nodes drop 25% of reports.
//
// Paper shape: models track each other below 40% compromised; past 40%
// TIBFIT wins by 7-20 points and holds near 80% at 58% compromised.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig4", argc, argv);
    io.describe("Figure 4: location-model accuracy vs % faulty, level-0 nodes");

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = static_cast<std::size_t>(io.option("events", 200, "events per run"));
    base.seed = static_cast<std::uint64_t>(io.option("seed", 20050628, "base seed"));
    if (io.help_requested()) {
        io.print_help();
        return 0;
    }

    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};
    struct Series {
        const char* name;
        double cs, fs;
        core::DecisionPolicy policy;
    };
    const Series series[] = {
        {"Lvl0 1.6-4.25 TIBFIT", 1.6, 4.25, core::DecisionPolicy::TrustIndex},
        {"Lvl0 1.6-4.25 Baseline", 1.6, 4.25, core::DecisionPolicy::MajorityVote},
        {"Lvl0 2-6 TIBFIT", 2.0, 6.0, core::DecisionPolicy::TrustIndex},
        {"Lvl0 2-6 Baseline", 2.0, 6.0, core::DecisionPolicy::MajorityVote},
    };
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        for (const auto& s : series) {
            exp::Scenario sc = base;
            sc.location.pct_faulty = p;
            sc.faults.correct_sigma = s.cs;
            sc.faults.faulty_sigma = s.fs;
            sc.engine.policy = s.policy;
            cells.push_back(sc);
        }
    }
    io.require_valid(cells);
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Figure 4: location model accuracy vs % faulty (level 0)");
    t.header({"% faulty", series[0].name, series[1].name, series[2].name, series[3].name});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (std::size_t c = 0; c < std::size(series); ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.param("pct_faulty", 0.3).param("correct_sigma", 1.6).param("faulty_sigma", 4.25);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.faults.correct_sigma = 1.6;
    rep.faults.faulty_sigma = 4.25;
    return io.finish(rep);
}
