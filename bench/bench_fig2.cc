// Figure 2 — Experiment 1, binary event model, missed alarms only.
// Accuracy vs. percentage of level-0 faulty nodes (40%..90%) for correct
// nodes with NER 0%, 1% and 5%. Faulty nodes miss 50% of events and raise
// no false alarms. 10 nodes, 1 CH, 100 events, lambda = 0.1, f_r = NER.
//
// Paper shape to reproduce: accuracy stays above ~85% through 70% faulty,
// then falls off at 80-90%.
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig2", argc, argv);
    io.describe("Figure 2: binary-model accuracy vs % faulty, missed alarms only");

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.n_nodes = static_cast<std::size_t>(io.option("n_nodes", 10, "cluster size"));
    base.binary.events = static_cast<std::size_t>(io.option("events", 100, "real events per run"));
    base.engine.trust.lambda = io.option("lambda", 0.1, "trust decay constant");
    base.faults.missed_alarm_rate = 0.5;
    base.faults.false_alarm_rate = 0.0;
    // Exp 1 isolates protocol behaviour from channel loss.
    base.channel.drop_probability = 0.0;
    base.seed = static_cast<std::uint64_t>(io.option("seed", 20050628, "base seed"));  // DSN 2005
    if (io.help_requested()) {
        io.print_help();
        return 0;
    }

    const std::vector<double> pct = {0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
    const std::vector<double> ners = {0.00, 0.01, 0.05};
    const std::size_t runs = io.trial_runs(30);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        for (double ner : ners) {
            exp::Scenario s = base;
            s.binary.pct_faulty = p;
            s.faults.natural_error_rate = ner;
            cells.push_back(s);
        }
        exp::Scenario b = base;
        b.binary.pct_faulty = p;
        b.faults.natural_error_rate = 0.01;
        b.engine.policy = core::DecisionPolicy::MajorityVote;
        cells.push_back(b);
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Figure 2: binary model accuracy vs % faulty (missed alarms only)");
    t.header({"% faulty", "NER 0% TIBFIT", "NER 1% TIBFIT", "NER 5% TIBFIT", "NER 1% Baseline"});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (std::size_t c = 0; c <= ners.size(); ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.5).set("correct_ner", 0.01);
    exp::Scenario rep = base;
    rep.binary.pct_faulty = 0.5;
    rep.faults.natural_error_rate = 0.01;
    return io.finish(rep);
}
