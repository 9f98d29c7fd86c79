// Extension bench — self-organized clustering vs the paper's dedicated-CH
// evaluation setup.
//
// The paper evaluates with standalone CH entities ("The CHs and event
// generator are two other entities present in the network"); the system
// model (Section 2) actually prescribes LEACH-elected heads drawn from the
// sensors. This bench runs the same level-0 workload both ways, with the
// same compromised nodes per trial (World's seeded draw): dedicated CHs,
// and LEACH heads (location.clustering = leach, P = 0.08, a round every
// 100 s) under TIBFIT and under the majority-vote baseline. At runs=3 the
// self-organized TIBFIT column reads 1.0 / 0.992 / 0.922 at 10 / 30 / 50%
// faulty against the dedicated column's 1.0 / 0.995 / 0.942; at 50% the
// self-organized baseline (0.928) reads above its TIBFIT (0.922). Three
// runs do not settle an ordering between those columns.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_leach", argc, argv);
    const std::vector<double> pct = {0.10, 0.30, 0.50};
    const std::size_t runs = io.trial_runs(3);

    exp::Scenario dedicated = exp::Scenario::location_defaults();
    dedicated.location.events = 200;
    dedicated.seed = 20050628;
    exp::Scenario leach = dedicated;
    leach.faults.natural_error_rate = 0.01;
    leach.location.clustering = exp::Clustering::Leach;
    leach.location.leach.ch_fraction = 0.08;

    // Per row: dedicated TIBFIT, self-organized TIBFIT, self-organized
    // baseline; one task list over all nine cells.
    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        exp::Scenario d = dedicated, t = leach;
        d.location.pct_faulty = t.location.pct_faulty = p;
        exp::Scenario b = t;
        b.engine.policy = core::DecisionPolicy::MajorityVote;
        cells.insert(cells.end(), {d, t, b});
    }
    io.require_valid(cells);
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Extension: LEACH self-organized heads vs dedicated CH entities (level 0)");
    t.header({"% faulty", "dedicated TIBFIT", "self-organized TIBFIT",
              "self-organized baseline"});
    for (std::size_t i = 0; i < pct.size(); ++i) {
        t.row_values({100.0 * pct[i], acc[3 * i], acc[3 * i + 1], acc[3 * i + 2]}, 3);
    }
    io.emit(t);
    io.param("pct_faulty", 0.3);
    exp::Scenario rep = dedicated;
    rep.location.pct_faulty = 0.3;
    return io.finish(rep);
}
