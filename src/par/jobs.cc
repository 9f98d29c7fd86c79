#include "par/jobs.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>

namespace tibfit::par {

namespace {

// 0 = "not set, fall back to default_jobs()". Atomic so that a worker
// thread reading the setting mid-run (it never does today, but tsan has no
// way to know that) stays race-free.
std::atomic<std::size_t> g_jobs{0};

}  // namespace

std::optional<std::size_t> parse_jobs(std::string_view text) {
    std::size_t n = 0;
    const char* end = text.data() + text.size();
    // from_chars into an unsigned type takes no sign and no leading
    // whitespace, and reports overflow instead of wrapping.
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || ptr != end || n == 0) return std::nullopt;
    return n;
}

std::size_t hardware_jobs() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1;
}

std::size_t default_jobs() {
    if (const char* env = std::getenv("TIBFIT_JOBS")) {
        if (const auto n = parse_jobs(env)) return *n;
        static std::once_flag warned;
        std::call_once(warned, [env] {
            std::cerr << "tibfit: ignoring invalid TIBFIT_JOBS value '" << env << "'\n";
        });
    }
    return hardware_jobs();
}

std::size_t jobs() {
    const std::size_t n = g_jobs.load(std::memory_order_relaxed);
    return n ? n : default_jobs();
}

void set_jobs(std::size_t n) { g_jobs.store(n, std::memory_order_relaxed); }

}  // namespace tibfit::par
