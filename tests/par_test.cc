#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/jobs.h"
#include "par/trial_runner.h"
#include "util/rng.h"

namespace tibfit::par {
namespace {

TEST(Jobs, NeverZero) {
    EXPECT_GE(hardware_jobs(), 1u);
    EXPECT_GE(default_jobs(), 1u);
    EXPECT_GE(jobs(), 1u);
}

TEST(Jobs, SetAndReset) {
    set_jobs(3);
    EXPECT_EQ(jobs(), 3u);
    set_jobs(0);  // back to default
    EXPECT_EQ(jobs(), default_jobs());
}

TEST(ParseJobs, AcceptsOnlyWholePositiveDecimals) {
    const struct {
        const char* text;
        std::optional<std::size_t> want;
    } cases[] = {
        {"4", 4},
        {"1", 1},
        {"128", 128},
        {"0", std::nullopt},
        {"-3", std::nullopt},
        {"4abc", std::nullopt},
        {" 4", std::nullopt},
        {"4 ", std::nullopt},
        {"+4", std::nullopt},
        {"", std::nullopt},
        {"abc", std::nullopt},
        {"99999999999999999999", std::nullopt},  // > 2^64: overflow, not wrap
    };
    for (const auto& c : cases) {
        EXPECT_EQ(parse_jobs(c.text), c.want) << "'" << c.text << "'";
    }
}

TEST(RunTrials, OneJobRunsEveryTrialOnTheCallingThread) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(9);
    std::vector<std::size_t> order;
    run_trials(
        9,
        [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
            order.push_back(i);
        },
        1);
    for (const auto& id : ran_on) EXPECT_EQ(id, caller);
    std::vector<std::size_t> want(9);
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(order, want);
}

// Holds a helper thread's trial until the calling thread has run one of
// its own, so the caller's share of the index is never empty however fast
// the helpers start. Bounded, so a scheduler bug fails instead of hanging.
void wait_for_caller(const std::atomic<bool>& caller_ran) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!caller_ran.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
}

TEST(RunTrials, FourJobsUseAtMostFourThreadsIncludingTheCaller) {
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    std::mutex mu;
    std::set<std::thread::id> ids;
    run_trials(
        32,
        [&](std::size_t) {
            if (std::this_thread::get_id() == caller) {
                caller_ran = true;
            } else {
                wait_for_caller(caller_ran);
            }
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        },
        4);
    EXPECT_LE(ids.size(), 4u);
    EXPECT_EQ(ids.count(caller), 1u);
}

TEST(RunTrials, ExceptionOnTheCallersShareIsRethrownInIndexOrder) {
    for (std::size_t jobs : {1u, 4u}) {
        const auto caller = std::this_thread::get_id();
        std::atomic<bool> caller_ran{false};
        std::mutex mu;
        std::set<std::size_t> threw;
        std::vector<std::atomic<int>> ran(16);
        try {
            run_trials(
                16,
                [&](std::size_t i) {
                    ran[i].fetch_add(1);
                    const bool on_caller = std::this_thread::get_id() == caller;
                    if (on_caller) {
                        caller_ran = true;
                    } else {
                        wait_for_caller(caller_ran);
                    }
                    // Every trial on the caller throws; helpers throw only at
                    // the last index.
                    if (on_caller || i == 15) {
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            threw.insert(i);
                        }
                        throw std::runtime_error(std::to_string(i));
                    }
                },
                jobs);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            ASSERT_TRUE(caller_ran.load());
            ASSERT_FALSE(threw.empty());
            EXPECT_EQ(e.what(), std::to_string(*threw.begin())) << "jobs=" << jobs;
        }
        for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
    }
}

TEST(RunTrials, ZeroTrialsIsANoOp) {
    run_trials(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(RunTrials, EveryIndexRunsExactlyOnce) {
    for (std::size_t jobs : {1u, 2u, 8u, 32u}) {
        std::vector<std::atomic<int>> hits(17);
        run_trials(17, [&](std::size_t i) { hits[i].fetch_add(1); }, jobs);
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(RunTrials, IndexOrderedResultsMatchSerial) {
    // Each trial writes into its own slot; the assembled vector must be
    // identical however many threads ran it.
    auto collect = [](std::size_t jobs) {
        std::vector<std::uint64_t> out(64);
        run_trials(64, [&](std::size_t i) { out[i] = util::derive_trial_seed(7, i); }, jobs);
        return out;
    };
    const auto serial = collect(1);
    EXPECT_EQ(collect(2), serial);
    EXPECT_EQ(collect(8), serial);
    EXPECT_EQ(collect(64), serial);
}

TEST(RunTrials, MoreJobsThanTrials) {
    std::vector<int> out(3, 0);
    run_trials(3, [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; }, 16);
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(RunTrials, RethrowsLowestIndexException) {
    for (std::size_t jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> ran(8);
        try {
            run_trials(
                8,
                [&](std::size_t i) {
                    ran[i].fetch_add(1);
                    if (i == 5) throw std::runtime_error("five");
                    if (i == 2) throw std::runtime_error("two");
                },
                jobs);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "two") << "jobs=" << jobs;
        }
        // Every trial still ran: a failure must not starve later trials.
        for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
    }
}

TEST(DeriveTrialSeed, ReproducesHistoricalSerialRecurrence) {
    // The pre-parallel sweep loop mutated the seed in place:
    //   seed = seed * 2654435761 + r + 1
    // derive_trial_seed must reproduce that sequence exactly so every
    // published bench curve survives the parallel rewrite bit-for-bit.
    std::uint64_t seed = 20050628;
    for (std::uint64_t r = 0; r < 40; ++r) {
        seed = seed * 2654435761u + r + 1;
        EXPECT_EQ(util::derive_trial_seed(20050628, r), seed) << "r=" << r;
    }
}

TEST(DeriveTrialSeed, IsAPureFunctionOfBaseAndIndex) {
    // Evaluating out of order or repeatedly changes nothing.
    const auto s7 = util::derive_trial_seed(1, 7);
    const auto s3 = util::derive_trial_seed(1, 3);
    EXPECT_EQ(util::derive_trial_seed(1, 7), s7);
    EXPECT_EQ(util::derive_trial_seed(1, 3), s3);
    EXPECT_NE(s3, s7);
}

}  // namespace
}  // namespace tibfit::par
