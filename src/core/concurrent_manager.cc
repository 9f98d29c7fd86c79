#include "core/concurrent_manager.h"

#include <algorithm>
#include <stdexcept>

namespace tibfit::core {

ConcurrentEventManager::ConcurrentEventManager(double r_error, double t_out)
    : r_error_(r_error), t_out_(t_out) {
    if (!(r_error > 0.0)) throw std::invalid_argument("ConcurrentEventManager: r_error <= 0");
    if (!(t_out > 0.0)) throw std::invalid_argument("ConcurrentEventManager: t_out <= 0");
}

bool ConcurrentEventManager::add_report(double now, std::size_t report_index,
                                        const util::Vec2& loc) {
    // Join the first circle that contains the location.
    for (auto& c : circles_) {
        if (c.circle.contains(loc)) {
            c.members.push_back(report_index);
            return false;
        }
    }
    const double deadline = now + t_out_;
    circles_.push_back(CircleState{
        util::Circle{loc, r_error_},
        deadline,
        {report_index},
    });
    if (!next_deadline_ || deadline < *next_deadline_) next_deadline_ = deadline;
    return true;
}

void ConcurrentEventManager::release_scratch() {
    parent_ = {};
    component_ready_ = {};
    group_slot_ = {};
    ready_ = {};
}

std::span<const ReportGroup> ConcurrentEventManager::collect_ready(double now) {
    // A component is ready only when all of its circles have expired, so
    // none can be while even the earliest deadline lies ahead.
    if (!next_deadline_ || *next_deadline_ > now) return {};
    const std::size_t n = circles_.size();

    // Union-find over overlapping circles.
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    auto find = [&](std::size_t x) {
        while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
        return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (util::circles_overlap(circles_[i].circle, circles_[j].circle)) {
                parent_[find(j)] = find(i);
            }
        }
    }

    // A component is ready when every member circle's deadline has passed.
    component_ready_.assign(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        if (circles_[i].deadline > now) component_ready_[find(i)] = 0;
    }

    // One group per ready component, in ascending root order; each gathers
    // its circles' reports in circle creation order, then within-circle
    // arrival order.
    constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    group_slot_.assign(n, kNoSlot);
    std::size_t groups = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (parent_[r] == r && component_ready_[r]) group_slot_[r] = groups++;
    }
    if (ready_.size() < groups) ready_.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) ready_[g].clear();

    // Compact the open circles to the front, in order, and re-establish
    // the cached minimum deadline over them.
    next_deadline_.reset();
    std::size_t open = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = group_slot_[find(i)];
        if (slot != kNoSlot) {
            auto& g = ready_[slot];
            g.insert(g.end(), circles_[i].members.begin(), circles_[i].members.end());
            continue;
        }
        if (!next_deadline_ || circles_[i].deadline < *next_deadline_) {
            next_deadline_ = circles_[i].deadline;
        }
        if (open != i) circles_[open] = std::move(circles_[i]);
        ++open;
    }
    circles_.erase(circles_.begin() + static_cast<std::ptrdiff_t>(open), circles_.end());
    return {ready_.data(), groups};
}

}  // namespace tibfit::core
