// Figure 2 — Experiment 1, binary event model, missed alarms only.
// Accuracy vs. percentage of level-0 faulty nodes (40%..90%) for correct
// nodes with NER 0%, 1% and 5%. Faulty nodes miss 50% of events and raise
// no false alarms. 10 nodes, 1 CH, 100 events, lambda = 0.1, f_r = NER.
//
// Paper shape to reproduce: accuracy stays above ~85% through 70% faulty,
// then falls off at 80-90%.
#include "exp/bench_io.h"

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

    io.faulty_table("Figure 2: binary model accuracy vs % faulty (missed alarms only)", base,
                    {0.40, 0.50, 0.60, 0.70, 0.80, 0.90},
                    {{"NER 0% TIBFIT", {"natural_error_rate=0"}},
                     {"NER 1% TIBFIT", {"natural_error_rate=0.01"}},
                     {"NER 5% TIBFIT", {"natural_error_rate=0.05"}},
                     {"NER 1% Baseline", {"natural_error_rate=0.01", "policy=majority_vote"}}},
                    io.trial_runs(30));
    io.param("correct_ner", 0.01);
    base.faults.natural_error_rate = 0.01;
    return io.finish(base, {"pct_faulty=0.5"});
}
