#include "par/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "par/jobs.h"

namespace tibfit::par {

void run_trials(std::size_t n, const std::function<void(std::size_t)>& trial,
                std::size_t jobs) {
    if (n == 0) return;
    if (jobs == 0) jobs = par::jobs();
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                trial(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    {
        // Joining the helpers (jthread destructors) publishes their result
        // slots and captured exceptions to this thread.
        const std::size_t threads = std::min(jobs, n);
        std::vector<std::jthread> helpers;
        helpers.reserve(threads - 1);
        for (std::size_t h = 1; h < threads; ++h) helpers.emplace_back(drain);
        drain();
    }

    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace tibfit::par
