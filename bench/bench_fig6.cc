// Figure 6 — Experiment 2, location determination, level-2 (smart
// colluding) faulty nodes. Same sweep as Figures 4-5, but the faulty nodes
// coordinate over an undetectable side channel: for every event they all
// report one shared fabricated location, or all stay silent, still under
// the 0.5/0.8 trust hysteresis.
//
// Paper shape: collusion hurts both models badly; TIBFIT still outperforms
// the baseline but cannot fully tolerate coordinated lies.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig6", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.location.events = 200;
    base.seed = 20050628;

    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};
    struct Series {
        const char* name;
        double cs, fs;
        core::DecisionPolicy policy;
    };
    const Series series[] = {
        {"Lvl2 1.6-4.25 TIBFIT", 1.6, 4.25, core::DecisionPolicy::TrustIndex},
        {"Lvl2 1.6-4.25 Baseline", 1.6, 4.25, core::DecisionPolicy::MajorityVote},
        {"Lvl2 2-6 TIBFIT", 2.0, 6.0, core::DecisionPolicy::TrustIndex},
        {"Lvl2 2-6 Baseline", 2.0, 6.0, core::DecisionPolicy::MajorityVote},
    };
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        for (const auto& s : series) {
            exp::Scenario c = base;
            c.location.pct_faulty = p;
            c.faults.correct_sigma = s.cs;
            c.faults.faulty_sigma = s.fs;
            c.engine.policy = s.policy;
            cells.push_back(c);
        }
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Figure 6: location model accuracy vs % faulty (level 2, colluding)");
    t.header({"% faulty", series[0].name, series[1].name, series[2].name, series[3].name});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (std::size_t c = 0; c < std::size(series); ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.3).set("correct_sigma", 1.6).set("faulty_sigma", 4.25);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.faults.correct_sigma = 1.6;
    rep.faults.faulty_sigma = 4.25;
    return io.finish(rep);
}
