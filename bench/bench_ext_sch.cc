// Extension bench — unreliable cluster heads (Section 3.4).
//
// "No nodes are considered immune to failure, whether they are sensing
// nodes or the data sink." Here the data sink itself is corrupt: the CH
// announces the opposite of every conclusion its engine reaches. Without
// shadows the cluster's output is garbage; with two shadow cluster heads
// overhearing the CH's traffic and a base station voting 2-vs-1, every
// corrupt announcement is masked and accuracy returns to the honest level
// — the paper's "only a single CH failure can be tolerated" in action.
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_sch", argc, argv);

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.n_nodes = 10;
    base.binary.events = 100;
    base.engine.trust.lambda = 0.1;
    base.faults.missed_alarm_rate = 0.5;
    base.channel.drop_probability = 0.0;
    base.seed = 20050628;

    const std::vector<double> pct = {0.40, 0.60, 0.80};
    const std::size_t runs = io.trial_runs(10);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        exp::Scenario c = base;
        c.binary.pct_faulty = p;
        cells.push_back(c);
        c.binary.corrupt_ch = true;
        cells.push_back(c);
        c.binary.use_shadows = true;
        cells.push_back(c);
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Extension: corrupt cluster head masked by shadow CHs + base station vote");
    t.header({"% faulty nodes", "honest CH", "corrupt CH, no shadows",
              "corrupt CH + shadows"});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (int c = 0; c < 3; ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.6).set("corrupt_ch", true).set("use_shadows", true);
    exp::Scenario rep = base;
    rep.binary.pct_faulty = 0.6;
    rep.binary.corrupt_ch = true;
    rep.binary.use_shadows = true;
    return io.finish(rep);
}
