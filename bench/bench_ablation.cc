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

    util::Table t("Ablations (level 0, 50% faulty, 200 events, accuracy averaged over 5 seeds)");
    t.header({"variant", "accuracy"});
    const auto mean_with = [&](const std::function<void(exp::Scenario&)>& change) {
        exp::Scenario c = base;
        change(c);
        return exp::mean_accuracy(c, runs);
    };
    const auto row = [&](const std::string& variant, double accuracy) {
        t.row({variant, util::Table::num(accuracy, 3)});
    };

    row("baseline config (isolation on, lambda 0.25, f_r 0.1, grid, rot 20)",
        mean_with([](exp::Scenario&) {}));
    row("isolation off", mean_with([](exp::Scenario& c) { c.engine.trust.removal_ti = 0.0; }));
    for (double lambda : {0.1, 0.5}) {
        row("lambda = " + util::Table::num(lambda, 2),
            mean_with([&](exp::Scenario& c) { c.engine.trust.lambda = lambda; }));
    }
    for (double fr : {0.05, 0.2}) {
        row("f_r = " + util::Table::num(fr, 2),
            mean_with([&](exp::Scenario& c) { c.engine.trust.fault_rate = fr; }));
    }
    row("random placement", mean_with([](exp::Scenario& c) { c.location.grid_layout = false; }));
    // rotation_period 0: a single CH for the whole run.
    row("no CH rotation", mean_with([](exp::Scenario& c) { c.location.rotation_period = 0; }));
    row("CH rotation every 5 events",
        mean_with([](exp::Scenario& c) { c.location.rotation_period = 5; }));
    row("trust-weighted location estimate",
        mean_with([](exp::Scenario& c) { c.engine.trust_weighted_location = true; }));
    {
        // The substrate matters: with a contending medium and no MAC the
        // same-instant reports of every event annihilate each other;
        // CSMA-like random access restores the protocol.
        const double no_mac = mean_with([](exp::Scenario& c) { c.channel.airtime = 2e-4; });
        const double with_mac = mean_with([](exp::Scenario& c) {
            c.channel.airtime = 2e-4;
            c.location.tx_jitter = 0.05;
        });
        row("MAC collisions on (airtime 0.2 ms), no random access", no_mac);
        row("MAC collisions on + 50 ms random-access jitter", with_mac);
    }
    {
        const auto level2 = [](exp::Scenario& c) {
            c.location.fault_level = sensor::NodeClass::Level2;
        };
        const double off = mean_with(level2);
        const double on = mean_with([&](exp::Scenario& c) {
            level2(c);
            c.engine.trust_weighted_location = true;
        });
        t.row({"level 2: plain cg -> trust-weighted cg",
               util::Table::num(off, 3) + " -> " + util::Table::num(on, 3)});
    }
    io.emit(t);
    io.params()
        .set("pct_faulty", base.location.pct_faulty)
        .set("events", static_cast<long>(base.location.events));
    return io.finish(base);
}
