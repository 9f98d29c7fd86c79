// Extension bench — mobile networks (Section 2: "The network could be
// stationary or mobile, as long as it is possible for the CH to estimate
// the positions of its cluster nodes during decision making").
//
// Nodes follow a random-waypoint walk; the CHs refresh their position
// estimates every mobility tick. Faster motion means staler estimates
// inside a T_out window, so accuracy degrades gracefully with speed.
#include "exp/bench_io.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_mobility", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = 20050628;

    io.faulty_table("Extension: stationary vs mobile network (level 0, TIBFIT)", base,
                    {0.10, 0.30, 0.50},
                    {{"stationary", {}},
                     {"mobile 0.5-1.5 u/s", {"mobile=true"}},
                     {"mobile 2-4 u/s", {"mobile=true", "speed_min=2", "speed_max=4"}}},
                    io.trial_runs(5));
    return io.finish(base, {"pct_faulty=0.3", "mobile=true"});
}
