// Extension bench — multi-hop report collection (Section 3.4: "TIBFIT can
// also be extended to scenarios where the sensing nodes are more than one
// hop away from the data sink", using a reliable dissemination primitive).
//
// Sensor radios shrink to 30 units on the 100x100 field, so most nodes
// reach the central CHs only through 1-3 relay hops over other sensors.
// Reports travel on the hop-acknowledged, retransmitting, duplicate-
// suppressing relay transport. Accuracy should match the single-hop runs:
// the protocol is agnostic to how reports arrive, provided they arrive.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_multihop", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = 20050628;
    base = io.scenario(base);

    io.faulty_table("Extension: single-hop vs multi-hop report collection (level 0, TIBFIT)", base,
                    {0.10, 0.30, 0.50, 0.58},
                    {{"single-hop", {}},
                     {"multi-hop (range 30)", {"multihop=true", "radio_range=30"}},
                     {"multi-hop (range 25)", {"multihop=true", "radio_range=25"}}},
                    io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "multihop=true", "radio_range=30"});
}
