// Figure 9 — Experiment 3, decay of the network, sigma pairing 6.0.
// Same protocol as Figure 8 (5% -> 75% compromised, +5% per 50 events)
// with the noisier faulty sigma of 6.0.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig9", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.decay = true;
    base.location.decay_initial = 0.05;
    base.location.decay_step = 0.05;
    base.location.decay_final = 0.75;
    base.location.decay_epoch_events = 50;
    base.location.epoch_events = 50;
    base.faults.faulty_sigma = 6.0;
    base.seed = 20050628;
    base = io.scenario(base);

    io.decay_table("Figure 9: network decay, accuracy per 50-event epoch (faulty sigma 6.0)", base,
                   {{"1.6-6 TIBFIT", {"correct_sigma=1.6", "policy=trust_index"}},
                    {"1.6-6 Baseline", {"correct_sigma=1.6", "policy=majority_vote"}},
                    {"2-6 TIBFIT", {"correct_sigma=2", "policy=trust_index"}},
                    {"2-6 Baseline", {"correct_sigma=2", "policy=majority_vote"}}},
                   io.trial_runs(5));
    return io.finish(base, {"correct_sigma=1.6", "faulty_sigma=6", "decay=true"});
}
