#include "sensor/event_generator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tibfit::sensor {

EventGenerator::EventGenerator(sim::Simulator& sim, util::Rng rng, double field_w,
                               double field_h)
    : sim_(&sim), rng_(rng), field_w_(field_w), field_h_(field_h) {
    if (!(field_w > 0.0) || !(field_h > 0.0)) {
        throw std::invalid_argument("EventGenerator: field dimensions must be > 0");
    }
}

util::Vec2 EventGenerator::draw_location() const { return rng_.point_in_rect(field_w_, field_h_); }

void EventGenerator::schedule_events(std::size_t count, double interval, double start,
                                     std::size_t burst, double min_separation) {
    if (burst == 0) throw std::invalid_argument("EventGenerator: burst must be >= 1");
    std::vector<util::Vec2> locs;
    locs.reserve(burst);
    for (std::size_t i = 0; i < count; ++i) {
        const double at = start + interval * static_cast<double>(i);
        // Draw the burst's locations now (deterministic order), enforcing
        // pairwise separation by rejection sampling.
        locs.clear();
        for (std::size_t b = 0; b < burst; ++b) {
            util::Vec2 loc;
            for (int attempt = 0;; ++attempt) {
                loc = draw_location();
                bool ok = true;
                for (const auto& other : locs) {
                    if (util::distance(loc, other) < min_separation) {
                        ok = false;
                        break;
                    }
                }
                if (ok) break;
                if (attempt > 1000) {
                    throw std::runtime_error(
                        "EventGenerator: cannot satisfy min_separation (field too small?)");
                }
            }
            locs.push_back(loc);
        }
        for (const auto& loc : locs) {
            sim_->schedule_at(at, [this, loc] { fire_event(loc); });
            ++scheduled_;
        }
    }
}

void EventGenerator::schedule_quiet_windows(std::size_t count, double interval, double start,
                                            double spread) {
    for (std::size_t i = 0; i < count; ++i) {
        const double at = start + interval * static_cast<double>(i);
        sim_->schedule_at(at, [this, spread] { fire_quiet(spread); });
    }
}

void EventGenerator::ensure_spatial_index() {
    const std::size_t n = nodes_.size();
    bool stale = index_positions_.size() != n;
    if (!stale) {
        for (std::size_t i = 0; i < n; ++i) {
            if (nodes_[i]->position() != index_positions_[i] ||
                nodes_[i]->sensing_radius() != index_radii_[i]) {
                stale = true;
                break;
            }
        }
    }
    if (!stale) return;
    index_positions_.resize(n);
    index_radii_.resize(n);
    index_radius_max_ = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        index_positions_[i] = nodes_[i]->position();
        index_radii_[i] = nodes_[i]->sensing_radius();
        if (index_radii_[i] > index_radius_max_) index_radius_max_ = index_radii_[i];
    }
    if (n != 0 && index_radius_max_ > 0.0) {
        grid_.rebuild(index_positions_, index_radius_max_);
    }
}

void EventGenerator::fire_event(const util::Vec2& location) {
    GeneratedEvent ev;
    ev.id = next_id_++;
    ev.time = sim_->now();
    ev.location = location;
    // Event neighbours via the spatial index: candidate nodes come from the
    // grid cells around the event (unordered); the inclusion predicate is
    // the exact expression the old O(N) scan used, and sorting the accepted
    // hits restores that scan's ascending visit order, so the neighbour set
    // is bit-identical.
    hits_.clear();
    ensure_spatial_index();
    if (!nodes_.empty() && index_radius_max_ > 0.0) {
        grid_.candidates_within(location, index_radius_max_, candidates_);
        for (std::size_t i : candidates_) {
            SensorNode* n = nodes_[i];
            if (util::distance(n->position(), location) <= n->sensing_radius()) {
                hits_.push_back(i);
            }
        }
        std::sort(hits_.begin(), hits_.end());
        ev.event_neighbours.reserve(hits_.size());
        for (std::size_t i : hits_) ev.event_neighbours.push_back(nodes_[i]->id());
    } else {
        // Degenerate topology (no positive sensing radius): the grid has no
        // usable cell size; keep the plain scan so a node exactly at the
        // event location still counts (distance 0 <= radius 0).
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            SensorNode* n = nodes_[i];
            if (util::distance(n->position(), location) <= n->sensing_radius()) {
                hits_.push_back(i);
                ev.event_neighbours.push_back(n->id());
            }
        }
    }
    const std::uint64_t id = ev.id;
    history_.push_back(std::move(ev));
    if (event_cb_) event_cb_(history_.back());
    for (std::size_t i : hits_) nodes_[i]->on_event(id, location);
}

void EventGenerator::fire_quiet(double spread) {
    const std::uint64_t id = next_quiet_id_++;
    if (quiet_cb_) quiet_cb_(id, sim_->now());
    for (SensorNode* n : nodes_) {
        if (spread > 0.0) {
            const double jitter = rng_.uniform(0.0, spread);
            sim_->schedule(jitter, [n, id] { n->on_quiet_window(id); });
        } else {
            n->on_quiet_window(id);
        }
    }
}

}  // namespace tibfit::sensor
