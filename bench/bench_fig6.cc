// Figure 6 — Experiment 2, location determination, level-2 (smart
// colluding) faulty nodes. Same sweep as Figures 4-5, but the faulty nodes
// coordinate over an undetectable side channel: for every event they all
// report one shared fabricated location, or all stay silent, still under
// the 0.5/0.8 trust hysteresis.
//
// Paper shape: collusion hurts both models badly; TIBFIT still outperforms
// the baseline but cannot fully tolerate coordinated lies.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig6", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.location.events = 200;
    base.seed = 20050628;
    base = io.scenario(base);

    io.faulty_table(
        "Figure 6: location model accuracy vs % faulty (level 2, colluding)", base,
        {0.10, 0.20, 0.30, 0.40, 0.50, 0.58},
        {{"Lvl2 1.6-4.25 TIBFIT",
          {"correct_sigma=1.6", "faulty_sigma=4.25", "policy=trust_index"}},
         {"Lvl2 1.6-4.25 Baseline",
          {"correct_sigma=1.6", "faulty_sigma=4.25", "policy=majority_vote"}},
         {"Lvl2 2-6 TIBFIT",
          {"correct_sigma=2", "faulty_sigma=6", "policy=trust_index"}},
         {"Lvl2 2-6 Baseline",
          {"correct_sigma=2", "faulty_sigma=6", "policy=majority_vote"}}},
        io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "correct_sigma=1.6", "faulty_sigma=4.25"});
}
