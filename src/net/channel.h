// The wireless broadcast medium. Replaces the ns-2 channel (DESIGN.md §2):
// the only channel behaviours the paper's evaluation leans on are (a)
// distance-limited delivery, (b) propagation delay, and (c) a small random
// per-packet loss ("correct nodes' packets are naturally dropped less than
// 1% of the time"), all of which are parameters here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::obs {
class Counter;
class Recorder;
enum class DropReason;
}  // namespace tibfit::obs

namespace tibfit::net {

/// Channel loss/delay tunables.
struct ChannelParams {
    double drop_probability = 0.01;  ///< per-packet natural loss
    double base_latency = 1e-4;      ///< fixed per-hop latency (seconds)
    double propagation_speed = 3e4;  ///< units per second
    /// MAC contention model: how long a packet occupies a receiver's
    /// radio. Two receptions at one receiver overlapping in time collide
    /// and BOTH are lost (the ns-2 runs the paper used model contention at
    /// the MAC; this is the coarse equivalent). 0 disables collisions.
    double airtime = 0.0;
};

/// One timed window of injected channel misbehaviour (fault-injection
/// campaigns, inject::CampaignSpec). Active while start <= now < end; all
/// probabilities stack on top of the natural channel model. Injection coins
/// are drawn from a dedicated stream installed by set_fault_schedule, so an
/// armed-but-idle (or absent) schedule never perturbs the natural stream.
struct ChannelFaultWindow {
    double start = 0.0;
    double end = 0.0;                  ///< exclusive; end <= start is an empty window
    double extra_drop = 0.0;           ///< additional per-packet loss probability
    double duplicate_probability = 0.0;///< chance a delivered packet arrives twice
    double delay_jitter = 0.0;         ///< uniform [0, delay_jitter) added latency
    double reorder_probability = 0.0;  ///< chance a packet is held back
    double reorder_hold = 0.0;         ///< hold-back duration when reordered
};

/// Single shared medium; all attached processes hear broadcasts within
/// their radio range of the sender.
class Channel {
  public:
    Channel(sim::Simulator& sim, util::Rng rng, ChannelParams params = {});
    // Pending delivery events hold the channel's address.
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Attaches a process at a position with a radio range. A process must
    /// be attached before it can send or receive; re-attaching updates
    /// position/range.
    void attach(sim::Process& process, const util::Vec2& position, double radio_range);

    /// Removes a process from the medium (failed / departed node).
    void detach(sim::ProcessId id);

    /// Moves an attached process (mobile networks).
    void set_position(sim::ProcessId id, const util::Vec2& position);

    /// Position of an attached process.
    util::Vec2 position(sim::ProcessId id) const;

    /// Overrides the natural loss rate for packets sent *by* this process.
    void set_drop_probability(sim::ProcessId id, double p);

    /// Registers `monitor` as a promiscuous listener on `target`: it
    /// receives copies of unicast packets sent to or by `target` (shadow
    /// cluster heads "listen in to the communication going in and out of
    /// the CH", Section 3.4). Each copy takes an independent loss coin.
    void add_monitor(sim::ProcessId monitor, sim::ProcessId target);

    /// Removes a monitor registration.
    void remove_monitor(sim::ProcessId monitor, sim::ProcessId target);

    /// Sends to one destination. The packet is lost if the destination is
    /// detached, out of the sender's radio range, or the loss coin fires.
    /// Returns true if delivery was scheduled. Taking the packet by rvalue
    /// reference means it is moved exactly once, into its slot; a caller
    /// that keeps its packet passes `Packet(p)`.
    bool unicast(Packet&& packet);

    /// Sends to every other attached process within the sender's radio
    /// range, with an independent loss coin per receiver. Returns the
    /// number of deliveries scheduled. The packet is moved as in unicast().
    std::size_t broadcast(Packet&& packet);

    /// Installs an injected-fault schedule. `rng` must be a dedicated
    /// substream (never the stream natural loss draws from): injection
    /// coins come only from it, and only while a window is active, so a run
    /// with an empty schedule is byte-identical to one with no schedule at
    /// all. Replaces any previous schedule; an empty vector disarms.
    void set_fault_schedule(std::vector<ChannelFaultWindow> windows, util::Rng rng);

    // Telemetry.
    std::size_t delivered() const { return delivered_; }
    std::size_t dropped() const { return dropped_; }
    std::size_t out_of_range() const { return out_of_range_; }
    std::size_t collisions() const { return collisions_; }
    std::size_t injected_drops() const { return injected_drops_; }
    std::size_t injected_duplicates() const { return injected_duplicates_; }
    std::size_t injected_delays() const { return injected_delays_; }
    std::size_t injected_reorders() const { return injected_reorders_; }

    /// Packet slots ever allocated. Bounded by the peak number of packets
    /// in flight at once, since freed slots are recycled.
    std::size_t packet_slot_count() const { return slots_.size(); }
    /// Packet slots still held by a pending delivery.
    std::size_t live_packet_slots() const { return slots_.size() - free_slots_.size(); }

    /// Mirrors the telemetry counters into `recorder` (nullptr detaches).
    /// With tracing enabled, drops of report-carrying packets also emit
    /// ReportDropped trace records. Counter pointers are resolved once here,
    /// so the send path never does a name lookup.
    void set_recorder(obs::Recorder* recorder);

  private:
    /// One sent packet, stored once and shared by every reception of it
    /// (receivers, monitor copies, injected duplicates). Each pending
    /// delivery holds one reference, and so does the send in progress.
    struct PacketSlot {
        Packet packet;
        std::uint32_t refs = 0;
    };

    /// The delivery event. Trivially copyable and small enough for
    /// EventCallback's inline buffer, so scheduling it never allocates.
    struct Delivery {
        Channel* channel;
        sim::Process* process;
        std::uint32_t slot;
        double rssi;
        void operator()() const { channel->fire(*this); }
    };

    /// One in-flight reception at an endpoint (collision model).
    struct Reception {
        double start;
        double end;
        sim::Timer timer;  ///< inert for jam markers of already-lost packets
        std::uint32_t slot;  ///< its packet; the reference is dropped if `timer` is cancelled
    };

    struct Endpoint {
        sim::Process* process;
        util::Vec2 position;
        double range;
        double drop_override = -1.0;  // < 0 means "use params_"
        std::vector<Reception> in_flight;
    };

    double sender_drop_probability(const Endpoint& sender) const;
    /// Moves `packet` into a free slot holding one reference (the send's).
    std::uint32_t store(Packet&& packet);
    /// Drops one reference; the last one frees the slot for reuse.
    void release(std::uint32_t slot);
    void deliver(Endpoint& to, std::uint32_t slot, double dist, double extra_delay = 0.0);
    void fire(const Delivery& d);
    /// One reception past the range check, for unicast() and each
    /// broadcast() receiver: the loss and injection coins, then the
    /// delivery of the packet stored in `slot`. False if a coin dropped it.
    bool send_stored(std::uint32_t slot, const Endpoint& src, Endpoint& dst, double dist);
    void snoop(std::uint32_t slot, const Endpoint& src);
    void note_drop(const Packet& packet, obs::DropReason reason);

    /// Fault window covering the current simulation time, or nullptr.
    const ChannelFaultWindow* active_fault_window() const;
    /// Draws the injected delay-jitter / reorder-hold extras for one
    /// delivery under `w`. Consumes fault_rng_ only.
    double injected_extra_delay(const ChannelFaultWindow& w);
    /// Resolves the injected_* counters (only once a schedule exists, so
    /// injection-free artifacts keep their historical shape).
    void resolve_injected_counters();

    sim::Simulator* sim_;
    util::Rng rng_;
    ChannelParams params_;
    std::unordered_map<sim::ProcessId, Endpoint> endpoints_;
    /// target -> monitors listening on it
    std::unordered_map<sim::ProcessId, std::vector<sim::ProcessId>> monitors_;
    std::vector<ChannelFaultWindow> fault_windows_;
    /// Packet storage; a deque so handlers that send while a delivery
    /// fires never move a packet some pending delivery still refers to.
    std::deque<PacketSlot> slots_;
    std::vector<std::uint32_t> free_slots_;
    util::Rng fault_rng_{0};
    std::size_t delivered_ = 0;
    std::size_t dropped_ = 0;
    std::size_t out_of_range_ = 0;
    std::size_t collisions_ = 0;
    std::size_t injected_drops_ = 0;
    std::size_t injected_duplicates_ = 0;
    std::size_t injected_delays_ = 0;
    std::size_t injected_reorders_ = 0;
    obs::Recorder* recorder_ = nullptr;
    obs::Counter* c_delivered_ = nullptr;
    obs::Counter* c_dropped_ = nullptr;
    obs::Counter* c_out_of_range_ = nullptr;
    obs::Counter* c_collisions_ = nullptr;
    obs::Counter* c_injected_drops_ = nullptr;
    obs::Counter* c_injected_duplicates_ = nullptr;
    obs::Counter* c_injected_delays_ = nullptr;
    obs::Counter* c_injected_reorders_ = nullptr;
};

}  // namespace tibfit::net
