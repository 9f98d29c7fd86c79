// Figure 7 — Experiment 2, single vs. concurrent events, level-0 faulty
// nodes, TIBFIT only. Concurrent runs generate two simultaneous events per
// instant, never within r_error of each other (the Section 3.3 circle
// machinery separates and arbitrates them independently).
//
// Paper shape: tolerating concurrent events does not significantly alter
// detection accuracy.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig7", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.engine.policy = core::DecisionPolicy::TrustIndex;
    base.location.events = 200;
    base.seed = 20050628;

    io.faulty_table("Figure 7: single vs concurrent events (level 0, TIBFIT)", base,
                    {0.10, 0.20, 0.30, 0.40, 0.50, 0.58},
                    {{"Lvl0 1.6-4.25 Single",
                      {"correct_sigma=1.6", "faulty_sigma=4.25", "burst=1"}},
                     {"Lvl0 1.6-4.25 Concurrent",
                      {"correct_sigma=1.6", "faulty_sigma=4.25", "burst=2"}},
                     {"Lvl0 2-6 Single",
                      {"correct_sigma=2", "faulty_sigma=6", "burst=1"}},
                     {"Lvl0 2-6 Concurrent",
                      {"correct_sigma=2", "faulty_sigma=6", "burst=2"}}},
                    io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "burst=2"});
}
