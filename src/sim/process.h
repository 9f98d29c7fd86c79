// Actor base class: anything that lives on the simulated network (sensor
// node, cluster head, base station, event generator) is a Process with a
// stable id and a hook for receiving packets.
#pragma once

#include <cstdint>

#include "sim/simulator.h"

namespace tibfit::net {
struct Packet;
}

namespace tibfit::sim {

/// Stable identifier of a process on the network (node id, CH id, ...).
using ProcessId = std::uint32_t;

/// Sentinel for "no process".
inline constexpr ProcessId kNoProcess = static_cast<ProcessId>(-1);

/// Base class for simulated actors. Subclasses receive packets via
/// handle_packet and schedule their own timers through sim().
class Process {
  public:
    Process(Simulator& sim, ProcessId id) : sim_(&sim), id_(id) {}
    virtual ~Process() = default;

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    ProcessId id() const { return id_; }
    Simulator& sim() const { return *sim_; }

    /// Delivery hook invoked by the channel when a packet arrives.
    virtual void handle_packet(const net::Packet& packet) = 0;

    /// Receiver interest: false means handle_packet(packet) would be a
    /// no-op, so a collision-free channel counts the reception as
    /// delivered but schedules no event for it. The channel asks at send
    /// time, after every loss and injection coin of the reception is drawn,
    /// so the answer must be exact and must not depend on when the packet
    /// arrives: an override may read only the packet and state fixed
    /// before the run starts (never state that changes while it runs).
    virtual bool consumes(const net::Packet& /*packet*/) const { return true; }

  private:
    Simulator* sim_;
    ProcessId id_;
};

}  // namespace tibfit::sim
