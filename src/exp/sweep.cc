#include "exp/sweep.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/names.h"
#include "obs/recorder.h"
#include "par/trial_runner.h"
#include "util/log.h"
#include "util/rng.h"

namespace tibfit::exp {

namespace {

// Fans every (cell, trial) pair out as one flat task list across the
// process-wide par::jobs() threads and returns the per-trial results with
// flat index i = k * runs + r for trial r of cell k. Trial (k, r) is a pure
// function of (cells[k], r): it draws the seed
// util::derive_trial_seed(cells[k].seed, r) and, when cell k has a
// recorder, gets a private one. Afterwards the private recorders merge
// into their cell's recorder in flat-index order — the order a per-cell
// loop would produce — so the aggregate is bit-identical regardless of the
// thread count (docs/PARALLELISM.md).
template <typename Run>
auto run_replications(std::span<const Scenario> cells, std::size_t runs, Run run)
    -> std::vector<decltype(run(cells.front()))> {
    const std::size_t n = cells.size() * runs;
    std::vector<decltype(run(cells.front()))> results(n);
    std::vector<std::unique_ptr<obs::Recorder>> recorders(n);
    par::run_trials(n, [&](std::size_t i) {
        const Scenario& cell = cells[i / runs];
        Scenario c = cell;
        c.seed = util::derive_trial_seed(cell.seed, i % runs);
        if (cell.recorder) {
            recorders[i] = std::make_unique<obs::Recorder>();
            recorders[i]->trace().set_enabled(cell.recorder->trace().enabled());
            c.recorder = recorders[i].get();
        }
        results[i] = run(c);
    });
    for (std::size_t i = 0; i < n; ++i) {
        if (!recorders[i]) continue;
        obs::Recorder* parent = cells[i / runs].recorder;
        parent->metrics().merge(recorders[i]->metrics());
        parent->trace().append_all(recorders[i]->trace());
    }
    return results;
}

}  // namespace

std::vector<double> mean_accuracies(std::span<const Scenario> cells, std::size_t runs) {
    const auto accuracies = run_replications(cells, runs, [](const Scenario& s) {
        return s.kind == Scenario::Kind::Binary ? run_binary_experiment(s).accuracy
                                                : run_location_experiment(s).accuracy;
    });
    std::vector<double> means(cells.size(), 0.0);
    if (runs == 0) return means;
    for (std::size_t k = 0; k < cells.size(); ++k) {
        double sum = 0.0;
        for (std::size_t r = 0; r < runs; ++r) sum += accuracies[k * runs + r];
        means[k] = sum / static_cast<double>(runs);
    }
    return means;
}

std::vector<std::vector<double>> detail::mean_epoch_accuracies(
    std::span<const Scenario> cells, std::size_t runs,
    const std::function<std::vector<double>(const Scenario&)>& series) {
    const auto all = run_replications(cells, runs, series);
    std::vector<std::vector<double>> means(cells.size());
    if (runs == 0) return means;

    for (std::size_t k = 0; k < cells.size(); ++k) {
        const std::span<const std::vector<double>> trials(all.data() + k * runs, runs);
        std::size_t min_len = trials.front().size();
        std::size_t max_len = min_len;
        for (const auto& t : trials) {
            min_len = std::min(min_len, t.size());
            max_len = std::max(max_len, t.size());
        }
        if (min_len != max_len) {
            // Identical scenarios normally produce identical epoch counts; a
            // shorter series means a run aborted early. Truncating is still
            // the only sound aggregation, but it must not happen silently —
            // every curve downstream loses its tail.
            std::size_t truncated = 0;
            for (const auto& t : trials) truncated += t.size() < max_len ? 1 : 0;
            util::log_warn() << "mean_epoch_accuracy: cell " << k << ": " << truncated << " of "
                             << runs << " runs produced fewer epochs than the longest ("
                             << min_len << " vs " << max_len << "); truncating every curve to "
                             << min_len << " epochs";
            if (obs::Recorder* rec = cells[k].recorder) {
                rec->metrics().counter(obs::metric::kSweepTruncatedRuns).inc(truncated);
            }
        }

        std::vector<double>& sum = means[k];
        sum.assign(min_len, 0.0);
        for (const auto& t : trials) {
            for (std::size_t e = 0; e < min_len; ++e) sum[e] += t[e];
        }
        for (auto& s : sum) s /= static_cast<double>(runs);
    }
    return means;
}

std::vector<std::vector<double>> mean_epoch_accuracies(std::span<const Scenario> cells,
                                                       std::size_t runs) {
    return detail::mean_epoch_accuracies(cells, runs, [](const Scenario& s) {
        return run_location_experiment(s).epoch_accuracy;
    });
}

double mean_accuracy(Scenario scenario, std::size_t runs) {
    return mean_accuracies({&scenario, 1}, runs).front();
}

std::vector<double> mean_epoch_accuracy(Scenario scenario, std::size_t runs) {
    return mean_epoch_accuracies({&scenario, 1}, runs).front();
}

std::vector<double> sweep(Scenario scenario, const std::vector<double>& xs,
                          const std::function<void(Scenario&, double)>& set,
                          std::size_t runs) {
    std::vector<Scenario> cells(xs.size(), scenario);
    for (std::size_t i = 0; i < xs.size(); ++i) set(cells[i], xs[i]);
    return mean_accuracies(cells, runs);
}

}  // namespace tibfit::exp
