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
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_leach", argc, argv);
    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.events = 200;
    base.seed = 20050628;

    io.faulty_table("Extension: LEACH self-organized heads vs dedicated CH entities (level 0)",
                    base, {0.10, 0.30, 0.50},
                    {{"dedicated TIBFIT", {}},
                     {"self-organized TIBFIT",
                      {"natural_error_rate=0.01", "clustering=leach", "ch_fraction=0.08"}},
                     {"self-organized baseline",
                      {"natural_error_rate=0.01", "clustering=leach", "ch_fraction=0.08",
                       "policy=majority_vote"}}},
                    io.trial_runs(3));
    return io.finish(base, {"pct_faulty=0.3"});
}
