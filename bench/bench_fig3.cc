// Figure 3 — Experiment 1, binary model with both missed alarms AND false
// alarms. All correct nodes have 1% NER; faulty nodes miss 50% of events
// and fabricate alarms at 0%, 10% or 75%. Accuracy is scored over all
// decision instances (real events + false-alarm windows).
//
// Paper shape: 75% false alarms is the *best* curve below 80% compromised
// (the alarms drain faulty nodes' trust) then collapses at 80%; 10% false
// alarms holds the highest accuracy there.
#include "exp/bench_io.h"

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

    io.faulty_table("Figure 3: binary model accuracy vs % faulty (missed + false alarms, NER 1%)",
                    base, {0.40, 0.50, 0.60, 0.70, 0.80, 0.90},
                    {{"FA 0%", {"false_alarm_rate=0"}},
                     {"FA 10%", {"false_alarm_rate=0.1"}},
                     {"FA 75%", {"false_alarm_rate=0.75"}}},
                    io.trial_runs(30));
    return io.finish(base, {"pct_faulty=0.5", "false_alarm_rate=0.1"});
}
