#include "net/radio.h"

namespace tibfit::net {

bool Radio::send(sim::ProcessId dst, Payload&& payload) {
    Packet p;
    p.src = id_;
    p.dst = dst;
    p.payload = std::move(payload);
    const bool ok = channel_->unicast(std::move(p));
    ++sent_;
    if (!ok) ++failures_;
    return ok;
}

std::size_t Radio::broadcast(Payload&& payload) {
    Packet p;
    p.src = id_;
    p.payload = std::move(payload);
    const std::size_t n = channel_->broadcast(std::move(p));
    ++sent_;
    if (n == 0) ++failures_;
    return n;
}

}  // namespace tibfit::net
