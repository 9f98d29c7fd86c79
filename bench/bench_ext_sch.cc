// Extension bench — unreliable cluster heads (Section 3.4).
//
// "No nodes are considered immune to failure, whether they are sensing
// nodes or the data sink." Here the data sink itself is corrupt: the CH
// announces the opposite of every conclusion its engine reaches. Without
// shadows the cluster's output is garbage; with two shadow cluster heads
// overhearing the CH's traffic and a base station voting 2-vs-1, every
// corrupt announcement is masked and accuracy returns to the honest level
// — the paper's "only a single CH failure can be tolerated" in action.
#include "exp/bench_io.h"

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

    io.faulty_table("Extension: corrupt cluster head masked by shadow CHs + base station vote",
                    base, {0.40, 0.60, 0.80},
                    {{"honest CH", {}},
                     {"corrupt CH, no shadows", {"corrupt_ch=true"}},
                     {"corrupt CH + shadows", {"corrupt_ch=true", "use_shadows=true"}}},
                    io.trial_runs(10), "% faulty nodes");
    return io.finish(base, {"pct_faulty=0.6", "corrupt_ch=true", "use_shadows=true"});
}
