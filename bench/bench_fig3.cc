// Figure 3 — Experiment 1, binary model with both missed alarms AND false
// alarms. All correct nodes have 1% NER; faulty nodes miss 50% of events
// and fabricate alarms at 0%, 10% or 75%. Accuracy is scored over all
// decision instances (real events + false-alarm windows).
//
// Paper shape: 75% false alarms is the *best* curve below 80% compromised
// (the alarms drain faulty nodes' trust) then collapses at 80%; 10% false
// alarms holds the highest accuracy there.
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig3", argc, argv);

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.n_nodes = 10;
    base.binary.events = 100;
    base.engine.trust.lambda = 0.1;
    base.faults.natural_error_rate = 0.01;
    base.faults.missed_alarm_rate = 0.5;
    base.channel.drop_probability = 0.0;
    base.seed = 20050628;

    const std::vector<double> pct = {0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
    const std::vector<double> fas = {0.0, 0.10, 0.75};
    const std::size_t runs = io.trial_runs(30);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        for (double fa : fas) {
            exp::Scenario c = base;
            c.binary.pct_faulty = p;
            c.faults.false_alarm_rate = fa;
            cells.push_back(c);
        }
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Figure 3: binary model accuracy vs % faulty (missed + false alarms, NER 1%)");
    t.header({"% faulty", "FA 0%", "FA 10%", "FA 75%"});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (std::size_t c = 0; c < fas.size(); ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.5).set("false_alarm_rate", 0.10);
    exp::Scenario rep = base;
    rep.binary.pct_faulty = 0.5;
    rep.faults.false_alarm_rate = 0.10;
    return io.finish(rep);
}
