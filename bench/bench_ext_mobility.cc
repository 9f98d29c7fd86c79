// Extension bench — mobile networks (Section 2: "The network could be
// stationary or mobile, as long as it is possible for the CH to estimate
// the positions of its cluster nodes during decision making").
//
// Nodes follow a random-waypoint walk; the CHs refresh their position
// estimates every mobility tick. Faster motion means staler estimates
// inside a T_out window, so accuracy degrades gracefully with speed.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_mobility", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = 20050628;

    const std::vector<double> pct = {0.10, 0.30, 0.50};
    const std::size_t runs = io.trial_runs(5);

    util::Table t("Extension: stationary vs mobile network (level 0, TIBFIT)");
    t.header({"% faulty", "stationary", "mobile 0.5-1.5 u/s", "mobile 2-4 u/s"});
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        std::vector<double> row{100.0 * p, exp::mean_accuracy(c, runs)};
        c.location.mobile = true;
        row.push_back(exp::mean_accuracy(c, runs));
        c.mobility.speed_min = 2.0;
        c.mobility.speed_max = 4.0;
        row.push_back(exp::mean_accuracy(c, runs));
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.3).set("mobile", true);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.location.mobile = true;
    return io.finish(rep);
}
