// Figure 8 — Experiment 3, decay of the network, sigma pairing 4.25.
// The run starts with 5% of the network compromised by level-0 nodes and
// compromises 5% more every 50 events until 75%. Accuracy is reported per
// 50-event epoch for TIBFIT and the baseline, with correct-node sigma 1.6
// and 2.0 against faulty sigma 4.25.
//
// Paper shape: TIBFIT outlives the baseline at equal sigmas (compare only
// same-sigma lines) and holds near 80% accuracy at 60% compromised.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig8", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.decay = true;
    base.location.decay_initial = 0.05;
    base.location.decay_step = 0.05;
    base.location.decay_final = 0.75;
    base.location.decay_epoch_events = 50;
    base.location.epoch_events = 50;
    base.faults.faulty_sigma = 4.25;
    base.seed = 20050628;

    io.decay_table("Figure 8: network decay, accuracy per 50-event epoch (faulty sigma 4.25)", base,
                   {{"1.6-4.25 TIBFIT", {"correct_sigma=1.6", "policy=trust_index"}},
                    {"1.6-4.25 Baseline", {"correct_sigma=1.6", "policy=majority_vote"}},
                    {"2-4.25 TIBFIT", {"correct_sigma=2", "policy=trust_index"}},
                    {"2-4.25 Baseline", {"correct_sigma=2", "policy=majority_vote"}}},
                   io.trial_runs(5));
    return io.finish(base, {"correct_sigma=1.6", "faulty_sigma=4.25", "decay=true"});
}
