// Figure 5 — Experiment 2, location determination, level-1 (smart
// independent) faulty nodes. Same sweep as Figure 4, but the faulty nodes
// watch their own trust index: they behave correctly once it falls to 0.5
// and resume lying when it recovers to 0.8.
//
// Paper shape: TIBFIT stays above ~90% even at 58% compromised, because
// the hysteresis forces malicious nodes to spend most of their time
// behaving; the baseline falls away from 40% on.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig5", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level1;
    base.location.events = 200;
    base.seed = 20050628;

    io.faulty_table(
        "Figure 5: location model accuracy vs % faulty (level 1, TI hysteresis 0.5/0.8)", base,
        {0.10, 0.20, 0.30, 0.40, 0.50, 0.58},
        {{"Lvl1 1.6-4.25 TIBFIT",
          {"correct_sigma=1.6", "faulty_sigma=4.25", "policy=trust_index"}},
         {"Lvl1 1.6-4.25 Baseline",
          {"correct_sigma=1.6", "faulty_sigma=4.25", "policy=majority_vote"}},
         {"Lvl1 2-6 TIBFIT",
          {"correct_sigma=2", "faulty_sigma=6", "policy=trust_index"}},
         {"Lvl1 2-6 Baseline",
          {"correct_sigma=2", "faulty_sigma=6", "policy=majority_vote"}}},
        io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "correct_sigma=1.6", "faulty_sigma=4.25"});
}
