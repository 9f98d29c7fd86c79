// Extension bench — multi-hop report collection (Section 3.4: "TIBFIT can
// also be extended to scenarios where the sensing nodes are more than one
// hop away from the data sink", using a reliable dissemination primitive).
//
// Sensor radios shrink to 30 units on the 100x100 field, so most nodes
// reach the central CHs only through 1-3 relay hops over other sensors.
// Reports travel on the hop-acknowledged, retransmitting, duplicate-
// suppressing relay transport. Accuracy should match the single-hop runs:
// the protocol is agnostic to how reports arrive, provided they arrive.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_multihop", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = 20050628;

    const std::vector<double> pct = {0.10, 0.30, 0.50, 0.58};
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        cells.push_back(c);
        c.location.multihop = true;
        for (double range : {30.0, 25.0}) {
            c.location.radio_range = range;
            cells.push_back(c);
        }
    }
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Extension: single-hop vs multi-hop report collection (level 0, TIBFIT)");
    t.header({"% faulty", "single-hop", "multi-hop (range 30)", "multi-hop (range 25)"});
    auto cell = acc.begin();
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (int c = 0; c < 3; ++c) row.push_back(*cell++);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("pct_faulty", 0.3).set("multihop", true).set("radio_range", 30.0);
    exp::Scenario rep = base;
    rep.location.pct_faulty = 0.3;
    rep.location.multihop = true;
    rep.location.radio_range = 30.0;
    return io.finish(rep);
}
