// Per-node radio handle: a thin, owning-nothing façade over the shared
// Channel that carries the node's identity and counts its traffic. Sensor
// nodes, CHs and the base station all talk through a Radio.
#pragma once

#include <cstddef>

#include "net/channel.h"

namespace tibfit::net {

/// A node's view of the medium.
class Radio {
  public:
    /// The channel must outlive the radio. The owner must have attached
    /// `id` to the channel before sending.
    Radio(Channel& channel, sim::ProcessId id) : channel_(&channel), id_(id) {}

    sim::ProcessId id() const { return id_; }
    Channel& channel() const { return *channel_; }

    /// Sends `payload` to `dst`. Returns true if delivery was scheduled.
    /// The payload is moved once, into the packet the channel stores.
    bool send(sim::ProcessId dst, Payload&& payload);

    /// Broadcasts `payload` to everyone in range; returns deliveries.
    /// Moved like send(): a caller that keeps its payload passes a copy.
    std::size_t broadcast(Payload&& payload);

    std::size_t sent() const { return sent_; }
    std::size_t send_failures() const { return failures_; }

  private:
    Channel* channel_;
    sim::ProcessId id_;
    std::size_t sent_ = 0;
    std::size_t failures_ = 0;
};

}  // namespace tibfit::net
