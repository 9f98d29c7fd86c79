// Figure 9 — Experiment 3, decay of the network, sigma pairing 6.0.
// Same protocol as Figure 8 (5% -> 75% compromised, +5% per 50 events)
// with the noisier faulty sigma of 6.0.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

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
    base.seed = 20050628;

    struct Series {
        const char* name;
        double cs;
        core::DecisionPolicy policy;
    };
    const Series series[] = {
        {"1.6-6 TIBFIT", 1.6, core::DecisionPolicy::TrustIndex},
        {"1.6-6 Baseline", 1.6, core::DecisionPolicy::MajorityVote},
        {"2-6 TIBFIT", 2.0, core::DecisionPolicy::TrustIndex},
        {"2-6 Baseline", 2.0, core::DecisionPolicy::MajorityVote},
    };
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (const auto& s : series) {
        exp::Scenario c = base;
        c.faults.correct_sigma = s.cs;
        c.faults.faulty_sigma = 6.0;
        c.engine.policy = s.policy;
        cells.push_back(c);
    }
    const std::vector<std::vector<double>> curves = exp::mean_epoch_accuracies(cells, runs);

    util::Table t("Figure 9: network decay, accuracy per 50-event epoch (faulty sigma 6.0)");
    t.header({"events", "% faulty", series[0].name, series[1].name, series[2].name,
              series[3].name});
    const std::size_t epochs = curves[0].size();
    for (std::size_t e = 0; e < epochs; ++e) {
        const exp::LocationWorkload& wl = base.location;
        const double pct = wl.decay_initial + wl.decay_step * static_cast<double>(e);
        std::vector<double> row{static_cast<double>((e + 1) * wl.decay_epoch_events), 100.0 * pct};
        for (const auto& c : curves) row.push_back(e < c.size() ? c[e] : 0.0);
        t.row_values(row, 3);
    }
    io.emit(t);
    io.params().set("correct_sigma", 1.6).set("faulty_sigma", 6.0).set("decay", true);
    exp::Scenario rep = base;
    rep.faults.correct_sigma = 1.6;
    rep.faults.faulty_sigma = 6.0;
    return io.finish(rep);
}
