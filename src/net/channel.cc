#include "net/channel.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::net {

Channel::Channel(sim::Simulator& sim, util::Rng rng, ChannelParams params)
    : sim_(&sim), rng_(rng), params_(params) {}

void Channel::attach(sim::Process& process, const util::Vec2& position, double radio_range) {
    endpoints_[process.id()] = Endpoint{&process, position, radio_range, -1.0, {}};
}

void Channel::detach(sim::ProcessId id) { endpoints_.erase(id); }

void Channel::set_position(sim::ProcessId id, const util::Vec2& position) {
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) throw std::out_of_range("Channel::set_position: unknown process");
    it->second.position = position;
}

util::Vec2 Channel::position(sim::ProcessId id) const {
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) throw std::out_of_range("Channel::position: unknown process");
    return it->second.position;
}

void Channel::set_drop_probability(sim::ProcessId id, double p) {
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) {
        throw std::out_of_range("Channel::set_drop_probability: unknown process");
    }
    it->second.drop_override = p;
}

void Channel::add_monitor(sim::ProcessId monitor, sim::ProcessId target) {
    auto& list = monitors_[target];
    for (auto m : list) {
        if (m == monitor) return;
    }
    list.push_back(monitor);
}

void Channel::remove_monitor(sim::ProcessId monitor, sim::ProcessId target) {
    auto it = monitors_.find(target);
    if (it == monitors_.end()) return;
    auto& list = it->second;
    list.erase(std::remove(list.begin(), list.end(), monitor), list.end());
    if (list.empty()) monitors_.erase(it);
}

void Channel::snoop(std::uint32_t slot, const Endpoint& src) {
    if (monitors_.empty()) return;  // no shadow CHs: skip both lookups
    const Packet& packet = slots_[slot].packet;
    // Copies for monitors of either endpoint of a unicast.
    for (sim::ProcessId watched : {packet.src, packet.dst}) {
        auto it = monitors_.find(watched);
        if (it == monitors_.end()) continue;
        for (sim::ProcessId mon : it->second) {
            if (mon == packet.src || mon == packet.dst) continue;
            auto mon_it = endpoints_.find(mon);
            if (mon_it == endpoints_.end()) continue;
            const double dist = util::distance(src.position, mon_it->second.position);
            if (dist > src.range) continue;
            if (rng_.chance(sender_drop_probability(src))) continue;
            deliver(mon_it->second, slot, dist);
        }
    }
}

void Channel::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    c_delivered_ = c_dropped_ = c_out_of_range_ = c_collisions_ = nullptr;
    c_injected_drops_ = c_injected_duplicates_ = nullptr;
    c_injected_delays_ = c_injected_reorders_ = nullptr;
    if (!recorder_) return;
    auto& reg = recorder_->metrics();
    c_delivered_ = &reg.counter(obs::metric::kChannelDelivered);
    c_dropped_ = &reg.counter(obs::metric::kChannelDropped);
    c_out_of_range_ = &reg.counter(obs::metric::kChannelOutOfRange);
    c_collisions_ = &reg.counter(obs::metric::kChannelCollisions);
    resolve_injected_counters();
}

void Channel::set_fault_schedule(std::vector<ChannelFaultWindow> windows, util::Rng rng) {
    fault_windows_ = std::move(windows);
    fault_rng_ = rng;
    resolve_injected_counters();
}

void Channel::resolve_injected_counters() {
    // The injected_* metrics exist only in runs that armed a schedule:
    // registering them unconditionally would change the artifact shape of
    // every injection-free bench.
    if (!recorder_ || fault_windows_.empty()) return;
    auto& reg = recorder_->metrics();
    c_injected_drops_ = &reg.counter(obs::metric::kInjectedDrops);
    c_injected_duplicates_ = &reg.counter(obs::metric::kInjectedDuplicates);
    c_injected_delays_ = &reg.counter(obs::metric::kInjectedDelays);
    c_injected_reorders_ = &reg.counter(obs::metric::kInjectedReorders);
}

const ChannelFaultWindow* Channel::active_fault_window() const {
    if (fault_windows_.empty()) return nullptr;
    const double now = sim_->now();
    for (const auto& w : fault_windows_) {
        if (now >= w.start && now < w.end) return &w;
    }
    return nullptr;
}

double Channel::injected_extra_delay(const ChannelFaultWindow& w) {
    double extra = 0.0;
    if (w.delay_jitter > 0.0) {
        extra += fault_rng_.uniform(0.0, w.delay_jitter);
        ++injected_delays_;
        if (c_injected_delays_) c_injected_delays_->inc();
    }
    if (w.reorder_probability > 0.0 && fault_rng_.chance(w.reorder_probability)) {
        extra += w.reorder_hold;
        ++injected_reorders_;
        if (c_injected_reorders_) c_injected_reorders_->inc();
    }
    return extra;
}

void Channel::note_drop(const Packet& packet, obs::DropReason reason) {
    if (!recorder_ || !recorder_->trace().enabled()) return;
    // Only report-carrying packets are trace-worthy; control traffic
    // (adverts, affiliations, acks, ...) would drown the stream.
    if (!packet.as<ReportPayload>() && !packet.as<RelayEnvelopePayload>()) return;
    recorder_->trace().append(
        sim_->now(), obs::ReportDropped{static_cast<std::uint32_t>(packet.src),
                                        static_cast<std::uint32_t>(packet.dst), reason});
}

double Channel::sender_drop_probability(const Endpoint& sender) const {
    return sender.drop_override >= 0.0 ? sender.drop_override : params_.drop_probability;
}

std::uint32_t Channel::store(Packet&& packet) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    slots_[slot].packet = std::move(packet);
    slots_[slot].refs = 1;
    return slot;
}

void Channel::release(std::uint32_t slot) {
    if (--slots_[slot].refs == 0) free_slots_.push_back(slot);
}

void Channel::deliver(Endpoint& to, std::uint32_t slot, double dist, double extra_delay) {
    static_assert(std::is_trivially_copyable_v<Delivery>,
                  "a delivery must relocate by memcpy");
    static_assert(sizeof(Delivery) <= sim::EventCallback::kInlineSize,
                  "a delivery must fit EventCallback's inline buffer");
    const double delay = params_.base_latency + dist / params_.propagation_speed + extra_delay;
    const Delivery delivery{this, to.process, slot, 1.0 / (1.0 + dist * dist)};

    if (params_.airtime <= 0.0) {
        // A reception the receiver would ignore still counts as delivered,
        // but needs no event. (With airtime it must stay: it can collide.)
        if (to.process->consumes(slots_[slot].packet)) {
            ++slots_[slot].refs;
            sim_->schedule(delay, delivery);
        }
        ++delivered_;
        if (c_delivered_) c_delivered_->inc();
        return;
    }

    // Collision model: this reception occupies the receiver's radio for
    // [arrive, arrive + airtime). Any overlap with another in-flight
    // reception destroys both (the other is cancelled mid-air; this one is
    // kept only as a jam marker so a third packet collides with it too).
    const double now = sim_->now();
    const double arrive = now + delay;
    const double end = arrive + params_.airtime;

    auto& flights = to.in_flight;
    flights.erase(std::remove_if(flights.begin(), flights.end(),
                                 [now](const Reception& r) { return r.end <= now; }),
                  flights.end());

    bool collided = false;
    for (auto& r : flights) {
        if (arrive < r.end && r.start < end) {
            collided = true;
            if (sim_->cancel(r.timer)) {  // the victim dies mid-air
                release(r.slot);
                ++collisions_;
                if (c_collisions_) c_collisions_->inc();
            }
        }
    }
    if (collided) {
        ++collisions_;
        if (c_collisions_) c_collisions_->inc();
        note_drop(slots_[slot].packet, obs::DropReason::Collision);
        flights.push_back(Reception{arrive, end, sim::Timer{}, slot});  // jam marker
        return;
    }
    ++slots_[slot].refs;
    flights.push_back(Reception{arrive, end, sim_->schedule(delay, delivery), slot});
}

void Channel::fire(const Delivery& d) {
    if (params_.airtime > 0.0) {  // collision-free receptions count at send
        ++delivered_;
        if (c_delivered_) c_delivered_->inc();
    }
    Packet& packet = slots_[d.slot].packet;
    packet.rssi = d.rssi;
    d.process->handle_packet(packet);
    release(d.slot);
}

bool Channel::unicast(Packet&& packet) {
    auto src_it = endpoints_.find(packet.src);
    if (src_it == endpoints_.end()) throw std::out_of_range("Channel::unicast: unknown sender");
    auto dst_it = endpoints_.find(packet.dst);
    if (dst_it == endpoints_.end()) {
        ++out_of_range_;
        if (c_out_of_range_) c_out_of_range_->inc();
        note_drop(packet, obs::DropReason::OutOfRange);
        return false;
    }
    const double dist = util::distance(src_it->second.position, dst_it->second.position);
    if (dist > src_it->second.range) {
        ++out_of_range_;
        if (c_out_of_range_) c_out_of_range_->inc();
        note_drop(packet, obs::DropReason::OutOfRange);
        return false;
    }
    packet.sent_at = sim_->now();
    const std::uint32_t slot = store(std::move(packet));
    snoop(slot, src_it->second);
    const bool sent = send_stored(slot, src_it->second, dst_it->second, dist);
    release(slot);
    return sent;
}

bool Channel::send_stored(std::uint32_t slot, const Endpoint& src, Endpoint& dst, double dist) {
    const Packet& packet = slots_[slot].packet;
    if (rng_.chance(sender_drop_probability(src))) {
        ++dropped_;
        if (c_dropped_) c_dropped_->inc();
        note_drop(packet, obs::DropReason::Natural);
        return false;
    }
    // Injected faults stack after the natural model, drawing only from the
    // dedicated fault stream. Per delivery the draw order is: drop coin,
    // delay extras (jitter then reorder), duplicate coin.
    if (const ChannelFaultWindow* w = active_fault_window()) {
        if (w->extra_drop > 0.0 && fault_rng_.chance(w->extra_drop)) {
            ++injected_drops_;
            if (c_injected_drops_) c_injected_drops_->inc();
            note_drop(packet, obs::DropReason::Injected);
            return false;
        }
        const double extra = injected_extra_delay(*w);
        const bool duplicate =
            w->duplicate_probability > 0.0 && fault_rng_.chance(w->duplicate_probability);
        if (duplicate) {
            ++injected_duplicates_;
            if (c_injected_duplicates_) c_injected_duplicates_->inc();
            deliver(dst, slot, dist, injected_extra_delay(*w));
        }
        deliver(dst, slot, dist, extra);
        return true;
    }
    deliver(dst, slot, dist);
    return true;
}

std::size_t Channel::broadcast(Packet&& packet) {
    auto src_it = endpoints_.find(packet.src);
    if (src_it == endpoints_.end()) throw std::out_of_range("Channel::broadcast: unknown sender");
    const Endpoint& src = src_it->second;
    packet.sent_at = sim_->now();
    packet.dst = kBroadcast;
    const std::uint32_t slot = store(std::move(packet));
    const Packet& stored = slots_[slot].packet;

    std::size_t n = 0;
    for (auto& [id, ep] : endpoints_) {
        if (id == stored.src) continue;
        const double dist = util::distance(src.position, ep.position);
        if (dist > src.range) {
            ++out_of_range_;
            if (c_out_of_range_) c_out_of_range_->inc();
            continue;
        }
        // Receptions fail independently: each draws its own coins.
        if (send_stored(slot, src, ep, dist)) ++n;
    }
    release(slot);
    return n;
}

}  // namespace tibfit::net
