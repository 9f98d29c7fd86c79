// The machine-checkable contract of the parallel trial scheduler: every
// sweep aggregate — means, epoch series, merged metrics registries, merged
// traces — is bit-identical whatever --jobs is set to.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "util/rng.h"

namespace tibfit::exp {
namespace {

class JobsGuard {
  public:
    JobsGuard() = default;
    ~JobsGuard() { par::set_jobs(0); }
};

Scenario small_binary() {
    Scenario c = Scenario::binary_defaults();
    c.binary.n_nodes = 10;
    c.binary.pct_faulty = 0.4;
    c.binary.events = 30;
    c.seed = 99;
    return c;
}

Scenario small_location() {
    Scenario c = Scenario::location_defaults();
    c.location.events = 40;
    c.location.pct_faulty = 0.3;
    c.seed = 20050628;
    return c;
}

std::string metrics_json(const obs::Recorder& rec) {
    std::ostringstream os;
    obs::json::Writer w(os, 2);
    rec.metrics().write_json(w);
    return os.str();
}

std::string trace_jsonl(const obs::Recorder& rec) {
    std::ostringstream os;
    rec.trace().write_jsonl(os);
    return os.str();
}

TEST(ParallelDeterminism, MeanBinaryAccuracyBitIdenticalAcrossJobs) {
    JobsGuard guard;
    par::set_jobs(1);
    const double serial = mean_accuracy(small_binary(), 12);
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracy(small_binary(), 12), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, MeanLocationAccuracyBitIdenticalAcrossJobs) {
    JobsGuard guard;
    par::set_jobs(1);
    const double serial = mean_accuracy(small_location(), 6);
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracy(small_location(), 6), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, EpochSeriesBitIdenticalAcrossJobs) {
    JobsGuard guard;
    Scenario c = small_location();
    c.location.events = 100;
    c.location.epoch_events = 25;
    par::set_jobs(1);
    const auto serial = mean_epoch_accuracy(c, 5);
    EXPECT_FALSE(serial.empty());
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_epoch_accuracy(c, 5), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, SweepBinaryBitIdenticalAcrossJobs) {
    JobsGuard guard;
    const std::vector<double> xs = {0.2, 0.4, 0.6};
    const auto set = [](Scenario& c, double x) { c.binary.pct_faulty = x; };
    par::set_jobs(1);
    const auto serial = sweep(small_binary(), xs, set, 8);
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(sweep(small_binary(), xs, set, 8), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, SweepLocationBitIdenticalAcrossJobs) {
    JobsGuard guard;
    const std::vector<double> xs = {0.1, 0.5};
    const auto set = [](Scenario& c, double x) { c.location.pct_faulty = x; };
    par::set_jobs(1);
    const auto serial = sweep(small_location(), xs, set, 4);
    par::set_jobs(8);
    EXPECT_EQ(sweep(small_location(), xs, set, 4), serial);
}

TEST(ParallelDeterminism, MergedMetricsJsonBitIdenticalAcrossJobs) {
    JobsGuard guard;
    auto run = [](std::size_t jobs) {
        par::set_jobs(jobs);
        obs::Recorder rec;
        Scenario c = small_binary();
        c.recorder = &rec;
        mean_accuracy(c, 10);
        return metrics_json(rec);
    };
    const std::string serial = run(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(ParallelDeterminism, MergedTraceBitIdenticalAcrossJobs) {
    JobsGuard guard;
    auto run = [](std::size_t jobs) {
        par::set_jobs(jobs);
        obs::Recorder rec;
        rec.trace().set_enabled(true);
        Scenario c = small_location();
        c.recorder = &rec;
        mean_accuracy(c, 4);
        return trace_jsonl(rec);
    };
    const std::string serial = run(1);
    EXPECT_GT(serial.size(), 100u) << "trace should have recorded something";
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(ParallelDeterminism, MergedRegistryMatchesSharedSerialRegistry) {
    // The per-trial-registry + ordered-merge path must reproduce what the
    // old serial loop produced by threading ONE shared registry through
    // every run: counters sum, histograms combine, last-write gauges keep
    // the last trial's value.
    JobsGuard guard;
    par::set_jobs(1);

    obs::Recorder merged;
    {
        Scenario c = small_binary();
        c.recorder = &merged;
        mean_accuracy(c, 5);
    }

    obs::Recorder shared;
    {
        for (std::size_t r = 0; r < 5; ++r) {
            Scenario c = small_binary();
            c.seed = util::derive_trial_seed(small_binary().seed, r);
            c.recorder = &shared;
            run_binary_experiment(c);
        }
    }

    obs::MemorySink a, b;
    merged.metrics().emit(a);
    shared.metrics().emit(b);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    EXPECT_EQ(a.histogram_counts, b.histogram_counts);
}

// A mixed cell list: binary and location cells with different seeds, so
// a mix-up of cell index, trial index or seed shows in the means.
std::vector<Scenario> mixed_cells() {
    std::vector<Scenario> cells;
    Scenario b = small_binary();
    cells.push_back(b);
    b.binary.pct_faulty = 0.6;
    b.seed = 7;
    cells.push_back(b);
    Scenario l = small_location();
    cells.push_back(l);
    l.location.pct_faulty = 0.5;
    l.seed = 31;
    cells.push_back(l);
    b.engine.policy = core::DecisionPolicy::MajorityVote;
    b.seed = 123;
    cells.push_back(b);
    return cells;
}

// The per-cell sequence the flat list must reproduce.
std::vector<double> per_cell_means(const std::vector<Scenario>& cells, std::size_t runs) {
    std::vector<double> out;
    for (const auto& c : cells) out.push_back(mean_accuracy(c, runs));
    return out;
}

TEST(FlatSweep, MeanAccuraciesMatchPerCellCallsAtAnyJobs) {
    JobsGuard guard;
    const auto cells = mixed_cells();
    par::set_jobs(1);
    const auto want = per_cell_means(cells, 3);
    for (std::size_t jobs : {1u, 3u, 4u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracies(cells, 3), want) << "jobs=" << jobs;
    }
}

TEST(FlatSweep, SharedRecorderMergesLikePerCellCalls) {
    JobsGuard guard;
    const auto record = [](bool flat, std::size_t jobs) {
        par::set_jobs(jobs);
        obs::Recorder rec;
        rec.trace().set_enabled(true);
        auto cells = mixed_cells();
        for (auto& c : cells) c.recorder = &rec;
        if (flat) {
            mean_accuracies(cells, 2);
        } else {
            per_cell_means(cells, 2);
        }
        return std::make_pair(metrics_json(rec), trace_jsonl(rec));
    };
    const auto want = record(false, 1);
    EXPECT_GT(want.second.size(), 100u);
    for (std::size_t jobs : {1u, 3u, 4u, 8u}) {
        EXPECT_EQ(record(true, jobs), want) << "jobs=" << jobs;
    }
}

TEST(FlatSweep, RecorderPerCellMergesLikePerCellCalls) {
    JobsGuard guard;
    const auto record = [](bool flat, std::size_t jobs) {
        par::set_jobs(jobs);
        auto cells = mixed_cells();
        std::vector<obs::Recorder> recs(cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k) {
            recs[k].trace().set_enabled(k % 2 == 0);
            cells[k].recorder = &recs[k];
        }
        if (flat) {
            mean_accuracies(cells, 2);
        } else {
            per_cell_means(cells, 2);
        }
        std::vector<std::string> out;
        for (const auto& r : recs) {
            out.push_back(metrics_json(r));
            out.push_back(trace_jsonl(r));
        }
        return out;
    };
    const auto want = record(false, 1);
    for (std::size_t jobs : {1u, 3u, 4u, 8u}) {
        EXPECT_EQ(record(true, jobs), want) << "jobs=" << jobs;
    }
}

TEST(FlatSweep, EpochAccuraciesMatchPerCellCalls) {
    JobsGuard guard;
    std::vector<Scenario> cells;
    Scenario c = small_location();
    c.location.events = 60;
    c.location.epoch_events = 20;
    cells.push_back(c);
    c.seed = 5;
    c.engine.policy = core::DecisionPolicy::MajorityVote;
    cells.push_back(c);
    c.location.epoch_events = 15;
    cells.push_back(c);
    par::set_jobs(1);
    std::vector<std::vector<double>> want;
    for (const auto& cell : cells) want.push_back(mean_epoch_accuracy(cell, 3));
    EXPECT_EQ(want[2].size(), 4u);
    for (std::size_t jobs : {1u, 3u, 4u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_epoch_accuracies(cells, 3), want) << "jobs=" << jobs;
    }
}

TEST(FlatSweep, TruncationCountsOnTheShortCellsOwnRecorder) {
    // Real runs never differ in epoch count, so the series come from a
    // stand-in: cell 1's trial 2 is one epoch short.
    JobsGuard guard;
    std::vector<Scenario> cells(3, small_location());
    for (std::size_t k = 0; k < cells.size(); ++k) cells[k].seed = 100 + k;
    const std::uint64_t short_seed = util::derive_trial_seed(cells[1].seed, 2);
    const auto series = [short_seed](const Scenario& s) {
        std::vector<double> out{0.5, 1.0, static_cast<double>(s.seed % 7)};
        if (s.seed == short_seed) out.pop_back();
        return out;
    };
    for (std::size_t jobs : {1u, 4u}) {
        par::set_jobs(jobs);
        std::vector<obs::Recorder> recs(cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k) cells[k].recorder = &recs[k];
        const auto means = detail::mean_epoch_accuracies(cells, 4, series);
        ASSERT_EQ(means.size(), 3u);
        EXPECT_EQ(means[0].size(), 3u);
        EXPECT_EQ(means[1].size(), 2u) << "cell 1 truncates to its shortest run";
        EXPECT_EQ(means[2].size(), 3u);
        for (std::size_t k = 0; k < recs.size(); ++k) {
            obs::MemorySink sink;
            recs[k].metrics().emit(sink);
            const auto it = sink.counters.find(obs::metric::kSweepTruncatedRuns);
            const std::uint64_t truncated = it == sink.counters.end() ? 0 : it->second;
            EXPECT_EQ(truncated, k == 1 ? 1u : 0u) << "cell " << k << " jobs=" << jobs;
        }
    }
}

TEST(FlatSweep, EmptyCellsAndZeroRuns) {
    EXPECT_TRUE(mean_accuracies({}, 5).empty());
    EXPECT_TRUE(mean_epoch_accuracies({}, 5).empty());
    const auto cells = mixed_cells();
    EXPECT_EQ(mean_accuracies(cells, 0), std::vector<double>(cells.size(), 0.0));
    EXPECT_EQ(mean_accuracy(cells[0], 0), 0.0);
    const auto epochs = mean_epoch_accuracies(cells, 0);
    ASSERT_EQ(epochs.size(), cells.size());
    for (const auto& e : epochs) EXPECT_TRUE(e.empty());
}

TEST(FlatSweep, LowestCellTrialExceptionSurfaces) {
    // Cell 2 throws at trial 1 and cell 3 at trial 0; flat index 2 * runs + 1
    // comes first, so cell 2's exception wins at any thread count, and the
    // trials after it (cell 3 included) still run.
    JobsGuard guard;
    std::vector<Scenario> cells(5, small_location());
    for (std::size_t k = 0; k < cells.size(); ++k) cells[k].seed = 40 + k;
    const std::uint64_t cell2_trial1 = util::derive_trial_seed(cells[2].seed, 1);
    const std::uint64_t cell3_trial0 = util::derive_trial_seed(cells[3].seed, 0);
    for (std::size_t jobs : {1u, 3u, 4u, 8u}) {
        par::set_jobs(jobs);
        std::atomic<int> ran{0};
        const auto series = [&](const Scenario& s) {
            ran.fetch_add(1);
            if (s.seed == cell2_trial1) throw std::runtime_error("cell 2");
            if (s.seed == cell3_trial0) throw std::runtime_error("cell 3");
            return std::vector<double>{1.0};
        };
        try {
            detail::mean_epoch_accuracies(cells, 3, series);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "cell 2") << "jobs=" << jobs;
        }
        EXPECT_EQ(ran.load(), 15) << "every (cell, trial) is attempted";
    }
    // The same through the public entry point: cells 2 and 3 fail
    // Scenario::validate() with different messages.
    auto invalid = mixed_cells();
    invalid[2].location.n_ch = 0;
    invalid[3].location.burst = 0;
    par::set_jobs(4);
    std::string cell2_error;
    try {
        mean_accuracy(invalid[2], 2);
    } catch (const std::invalid_argument& e) {
        cell2_error = e.what();
    }
    ASSERT_FALSE(cell2_error.empty());
    try {
        mean_accuracies(invalid, 2);
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), cell2_error);
    }
}

}  // namespace
}  // namespace tibfit::exp
