// Heap-allocation budgets of a binary and a location trial, as regression
// gates.
//
// This binary replaces the global operator new family with a counting one
// (which is why it is its own executable), runs the Figure 2 and Figure 4
// scenarios at two event counts each, and bounds the allocations each
// added event costs. Per-event work (schedule, report, deliver, decide,
// announce, score) is meant to build every packet, decision and event in
// its final storage, so an added event allocates only what it must keep:
// in a binary trial, its ground-truth neighbour list and the two judgement
// lists of its decision. A copy
// slipping back into that path raises the slope by whole allocations per
// report or per decision, far past the budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
    void* p = std::malloc(size == 0 ? 1 : size);
    if (!p) throw std::bad_alloc();
    ++t_allocations;
    return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
    if (!p) throw std::bad_alloc();
    ++t_allocations;
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace tibfit::exp {
namespace {

/// One bench_fig2 trial: its reported cell (50% faulty, NER 1%, TIBFIT).
Scenario fig2_trial(std::size_t events) {
    Scenario s = Scenario::binary_defaults();
    s.binary.events = events;
    s.binary.pct_faulty = 0.5;
    s.faults.natural_error_rate = 0.01;
    s.faults.missed_alarm_rate = 0.5;
    s.faults.false_alarm_rate = 0.0;
    s.channel.drop_probability = 0.0;
    s.seed = 20050628;
    return s;
}

/// One bench_fig4 trial: its reported cell (30% level-0 faulty, sigma
/// 1.6/4.25, TIBFIT).
Scenario fig4_trial(std::size_t events) {
    Scenario s = Scenario::location_defaults();
    s.location.events = events;
    s.location.pct_faulty = 0.3;
    s.location.fault_level = sensor::NodeClass::Level0;
    s.faults.correct_sigma = 1.6;
    s.faults.faulty_sigma = 4.25;
    s.seed = 20050628;
    return s;
}

template <class Run>
std::uint64_t allocations_of(Run run) {
    const std::uint64_t before = t_allocations;
    const auto r = run();
    const std::uint64_t used = t_allocations - before;
    EXPECT_GT(r.accuracy, 0.0);  // the trial really ran
    return used;
}

std::uint64_t allocations_of_trial(std::size_t events) {
    return allocations_of([&] { return run_binary_experiment(fig2_trial(events)); });
}

std::uint64_t allocations_of_location_trial(std::size_t events) {
    return allocations_of([&] { return run_location_experiment(fig4_trial(events)); });
}

TEST(AllocBudget, Fig2TrialAllocatesAtMostFourPerAddedEvent) {
    // A first trial pays one-time set-up (lazy statics, locale), so the
    // measured pair starts warm.
    allocations_of_trial(100);
    const std::uint64_t at_100 = allocations_of_trial(100);
    const std::uint64_t at_200 = allocations_of_trial(200);
    ASSERT_GT(at_200, at_100);
    const double per_event = static_cast<double>(at_200 - at_100) / 100.0;
    RecordProperty("allocations_at_100_events", static_cast<int>(at_100));
    RecordProperty("allocations_at_200_events", static_cast<int>(at_200));
    EXPECT_LE(per_event, 4.0) << at_100 << " allocations at 100 events, " << at_200
                              << " at 200";
}

TEST(AllocBudget, Fig4TrialAllocatesAtMost32PerAddedEvent) {
    // The location path decides each window in the engine's, arbiter's
    // and clusterer's reused scratch, so an added event allocates what it
    // keeps (its neighbour list, its circle's member list, its decisions'
    // node lists and announcements) plus a share of the scratch each new
    // leadership regrows: 26.3 per event. Before that path ran in place it
    // cost 111.6. The bound leaves about 20% headroom.
    allocations_of_location_trial(100);
    const std::uint64_t at_100 = allocations_of_location_trial(100);
    const std::uint64_t at_200 = allocations_of_location_trial(200);
    ASSERT_GT(at_200, at_100);
    const double per_event = static_cast<double>(at_200 - at_100) / 100.0;
    RecordProperty("allocations_at_100_events", static_cast<int>(at_100));
    RecordProperty("allocations_at_200_events", static_cast<int>(at_200));
    EXPECT_LE(per_event, 32.0) << at_100 << " allocations at 100 events, " << at_200
                               << " at 200";
}

}  // namespace
}  // namespace tibfit::exp
