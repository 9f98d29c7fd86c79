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

    util::Table t("Extension: level-2 collusion with and without the collusion detector");
    t.header({"% faulty", "TIBFIT (paper)", "TIBFIT + detector", "detector vs jittered echoes",
              "Baseline"});
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        std::vector<double> row{100.0 * p, exp::mean_accuracy(c, runs)};
        c.engine.collusion_defense = true;
        row.push_back(exp::mean_accuracy(c, runs));
        // The arms race: adaptive colluders jitter their echoes past the
        // detector's epsilon, restoring (most of) the attack.
        c.faults.collusion_jitter = 0.5;
        row.push_back(exp::mean_accuracy(c, runs));
        exp::Scenario baseline = base;
        baseline.location.pct_faulty = p;
        baseline.engine.policy = core::DecisionPolicy::MajorityVote;
        row.push_back(exp::mean_accuracy(baseline, runs));
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.3).set("collusion_defense", true);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.engine.collusion_defense = true;
    return io.finish(rep);
}
