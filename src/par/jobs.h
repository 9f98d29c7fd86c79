// Process-wide parallelism setting for the trial scheduler.
//
// Resolution order: an explicit set_jobs() call (benches and the CLI wire
// `--jobs N` here) beats the TIBFIT_JOBS environment variable, which beats
// std::thread::hardware_concurrency(). A value of 1 keeps every sweep
// strictly serial; any value yields bit-identical results (see
// docs/PARALLELISM.md for the determinism contract).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace tibfit::par {

/// Parses a job count: the whole string must be a positive decimal that
/// fits in std::size_t ("4" yes; "0", "-3", "4abc", " 4", "" and overflow
/// no). Every `--jobs` flag and TIBFIT_JOBS go through this one parser.
std::optional<std::size_t> parse_jobs(std::string_view text);

/// std::thread::hardware_concurrency(), floored at 1.
std::size_t hardware_jobs();

/// TIBFIT_JOBS when parse_jobs() accepts it, else hardware_jobs(). An
/// invalid TIBFIT_JOBS is reported on stderr once per process.
std::size_t default_jobs();

/// The current process-wide job count (never 0).
std::size_t jobs();

/// Overrides the job count; 0 resets to default_jobs().
void set_jobs(std::size_t n);

}  // namespace tibfit::par
