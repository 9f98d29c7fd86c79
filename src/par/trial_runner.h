// Deterministic fan-out of independent seeded replications ("trials").
//
// run_trials(n, trial) executes trial(0) .. trial(n-1) exactly once each.
// The calling thread and min(jobs, n) - 1 helper threads drain one shared
// atomic index, so jobs = 1 is simply the caller running every trial in
// order. The contract that makes the result independent of the thread
// count:
//
//   * each trial is a pure function of its index — it derives its own seed
//     via util::derive_trial_seed(base, index) and writes its result into
//     an index-addressed slot owned by the caller;
//   * the caller reduces the slots (sum, merge, ...) on its own thread in
//     index order after run_trials returns;
//   * exceptions are captured per index and the lowest-index one is
//     rethrown after every trial has been attempted, so error behaviour is
//     deterministic too.
//
// See docs/PARALLELISM.md for the full scheme.
#pragma once

#include <cstddef>
#include <functional>

namespace tibfit::par {

/// Runs trial(0..n-1) on the calling thread plus up to `jobs` - 1 helper
/// threads (0 = the process-wide par::jobs() setting). Returns after all n
/// trials completed; rethrows the lowest-index captured exception, if any.
void run_trials(std::size_t n, const std::function<void(std::size_t)>& trial,
                std::size_t jobs = 0);

}  // namespace tibfit::par
