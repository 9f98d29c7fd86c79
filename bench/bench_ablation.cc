// Ablations of the deliberate design interpretations documented in
// DESIGN.md §5 — each knob the paper under-specifies, toggled on a fixed
// workload so reviewers can see how much it matters:
//
//   1. node isolation (removal_ti) on vs. off;
//   2. lambda sensitivity (0.1 / 0.25 / 0.5);
//   3. f_r sensitivity (0.05 / 0.1 / 0.2);
//   4. grid vs. random node placement;
//   5. CH rotation period (no rotation / 20 / 5 events).
#include <functional>
#include <string>
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ablation", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.pct_faulty = 0.5;
    base.location.events = 200;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);

    // One cell per variant, all run as one sweep; the table is laid out
    // from the returned means afterwards.
    std::vector<std::string> variants;
    std::vector<exp::Scenario> cells;
    const auto variant = [&](std::string name, const std::function<void(exp::Scenario&)>& change) {
        exp::Scenario c = base;
        change(c);
        variants.push_back(std::move(name));
        cells.push_back(c);
    };

    variant("baseline config (isolation on, lambda 0.25, f_r 0.1, grid, rot 20)",
            [](exp::Scenario&) {});
    variant("isolation off", [](exp::Scenario& c) { c.engine.trust.removal_ti = 0.0; });
    for (double lambda : {0.1, 0.5}) {
        variant("lambda = " + util::Table::num(lambda, 2),
                [&](exp::Scenario& c) { c.engine.trust.lambda = lambda; });
    }
    for (double fr : {0.05, 0.2}) {
        variant("f_r = " + util::Table::num(fr, 2),
                [&](exp::Scenario& c) { c.engine.trust.fault_rate = fr; });
    }
    variant("random placement", [](exp::Scenario& c) { c.location.grid_layout = false; });
    // rotation_period 0: a single CH for the whole run.
    variant("no CH rotation", [](exp::Scenario& c) { c.location.rotation_period = 0; });
    variant("CH rotation every 5 events",
            [](exp::Scenario& c) { c.location.rotation_period = 5; });
    variant("trust-weighted location estimate",
            [](exp::Scenario& c) { c.engine.trust_weighted_location = true; });
    // The substrate matters: with a contending medium and no MAC the
    // same-instant reports of every event annihilate each other;
    // CSMA-like random access restores the protocol.
    variant("MAC collisions on (airtime 0.2 ms), no random access",
            [](exp::Scenario& c) { c.channel.airtime = 2e-4; });
    variant("MAC collisions on + 50 ms random-access jitter", [](exp::Scenario& c) {
        c.channel.airtime = 2e-4;
        c.location.tx_jitter = 0.05;
    });
    // Two more cells share the last row: level 2 with the plain, then the
    // trust-weighted, centre of gravity.
    exp::Scenario level2 = base;
    level2.location.fault_level = sensor::NodeClass::Level2;
    cells.push_back(level2);
    level2.engine.trust_weighted_location = true;
    cells.push_back(level2);
    const std::vector<double> acc = exp::mean_accuracies(cells, runs);

    util::Table t("Ablations (level 0, 50% faulty, 200 events, accuracy averaged over 5 seeds)");
    t.header({"variant", "accuracy"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        t.row({variants[i], util::Table::num(acc[i], 3)});
    }
    const std::size_t l2 = variants.size();
    t.row({"level 2: plain cg -> trust-weighted cg",
           util::Table::num(acc[l2], 3) + " -> " + util::Table::num(acc[l2 + 1], 3)});
    io.emit(t);
    io.params()
        .set("pct_faulty", base.location.pct_faulty)
        .set("events", static_cast<long>(base.location.events));
    return io.finish(base);
}
