// Extension bench — collusion defense (the paper's Section-7 future work:
// "make TIBFIT more robust against level 2 malicious nodes").
//
// Repeats the Figure-6 sweep (level-2 colluding adversaries) with the
// statistical collusion detector enabled: cliques of near-identical
// reports convict the colluding pairs, drain their trust and isolate them.
// The detector closes most of the gap collusion opened.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_collusion", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.faults.correct_sigma = 1.6;
    base.faults.faulty_sigma = 4.25;
    base.location.events = 200;
    base.seed = 20050628;

    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        cells.push_back(c);
        c.engine.collusion_defense = true;
        cells.push_back(c);
        // The arms race: adaptive colluders jitter their echoes past the
        // detector's epsilon, restoring (most of) the attack.
        c.faults.collusion_jitter = 0.5;
        cells.push_back(c);
        exp::Scenario baseline = base;
        baseline.location.pct_faulty = p;
        baseline.engine.policy = core::DecisionPolicy::MajorityVote;
        cells.push_back(baseline);
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Extension: level-2 collusion with and without the collusion detector");
    t.header({"% faulty", "TIBFIT (paper)", "TIBFIT + detector", "detector vs jittered echoes",
              "Baseline"});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (int c = 0; c < 4; ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.3).set("collusion_defense", true);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.engine.collusion_defense = true;
    return io.finish(rep);
}
