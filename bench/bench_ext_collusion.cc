// Extension bench — collusion defense (the paper's Section-7 future work:
// "make TIBFIT more robust against level 2 malicious nodes").
//
// Repeats the Figure-6 sweep (level-2 colluding adversaries) with the
// statistical collusion detector enabled: cliques of near-identical
// reports convict the colluding pairs, drain their trust and isolate them.
// The detector closes most of the gap collusion opened.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_collusion", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.faults.correct_sigma = 1.6;
    base.faults.faulty_sigma = 4.25;
    base.location.events = 200;
    base.seed = 20050628;
    base = io.scenario(base);

    // The arms race in the third column: adaptive colluders jitter their
    // echoes past the detector's epsilon, restoring (most of) the attack.
    io.faulty_table("Extension: level-2 collusion with and without the collusion detector", base,
                    {0.10, 0.20, 0.30, 0.40, 0.50, 0.58},
                    {{"TIBFIT (paper)", {}},
                     {"TIBFIT + detector", {"collusion_defense=true"}},
                     {"detector vs jittered echoes",
                      {"collusion_defense=true", "collusion_jitter=0.5"}},
                     {"Baseline", {"policy=majority_vote"}}},
                    io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "collusion_defense=true"});
}
