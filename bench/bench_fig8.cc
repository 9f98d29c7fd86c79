// Figure 8 — Experiment 3, decay of the network, sigma pairing 4.25.
// The run starts with 5% of the network compromised by level-0 nodes and
// compromises 5% more every 50 events until 75%. Accuracy is reported per
// 50-event epoch for TIBFIT and the baseline, with correct-node sigma 1.6
// and 2.0 against faulty sigma 4.25.
//
// Paper shape: TIBFIT outlives the baseline at equal sigmas (compare only
// same-sigma lines) and holds near 80% accuracy at 60% compromised.
#include <vector>

#include "exp/bench_io.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "util/table.h"

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
    base.seed = 20050628;

    struct Series {
        const char* name;
        double cs;
        core::DecisionPolicy policy;
    };
    const Series series[] = {
        {"1.6-4.25 TIBFIT", 1.6, core::DecisionPolicy::TrustIndex},
        {"1.6-4.25 Baseline", 1.6, core::DecisionPolicy::MajorityVote},
        {"2-4.25 TIBFIT", 2.0, core::DecisionPolicy::TrustIndex},
        {"2-4.25 Baseline", 2.0, core::DecisionPolicy::MajorityVote},
    };
    const std::size_t runs = io.trial_runs(5);

    std::vector<exp::Scenario> cells;
    for (const auto& s : series) {
        exp::Scenario c = base;
        c.faults.correct_sigma = s.cs;
        c.faults.faulty_sigma = 4.25;
        c.engine.policy = s.policy;
        cells.push_back(c);
    }
    io.require_valid(cells);
    const std::vector<std::vector<double>> curves = exp::mean_epoch_accuracies(cells, runs);

    util::Table t("Figure 8: network decay, accuracy per 50-event epoch (faulty sigma 4.25)");
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
    io.param("correct_sigma", 1.6).param("faulty_sigma", 4.25).param("decay", true);
    exp::Scenario rep = base;
    rep.faults.correct_sigma = 1.6;
    rep.faults.faulty_sigma = 4.25;
    return io.finish(rep);
}
