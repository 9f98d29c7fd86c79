#include "net/transport.h"

namespace tibfit::net {

ReliableTransport::ReliableTransport(sim::Simulator& sim, Radio radio,
                                     const RoutingTable* routes, TransportParams params)
    : sim_(&sim), radio_(radio), routes_(routes), params_(params) {}

bool ReliableTransport::send(sim::ProcessId final_dst, ReportPayload report) {
    if (!routes_->reachable(id(), final_dst)) return false;
    RelayEnvelopePayload env;
    env.source = id();
    env.final_dst = final_dst;
    env.seq = next_seq_++;
    env.ttl = params_.ttl;
    env.report = std::move(report);
    seen_.insert(make_key(env.source, env.seq));  // don't loop back to self
    ++originated_;
    transmit_hop(env);
    return true;
}

void ReliableTransport::transmit_hop(const RelayEnvelopePayload& envelope) {
    const sim::ProcessId hop = routes_->next_hop(id(), envelope.final_dst);
    if (hop == sim::kNoProcess || envelope.ttl == 0) {
        ++gave_up_;
        return;
    }
    const std::uint64_t key = make_key(envelope.source, envelope.seq);
    // Replaces any entry already pending under `key`.
    PendingHop& pending =
        pending_.insert_or_assign(key, PendingHop{envelope, hop, params_.max_retries, {}})
            .first->second;
    pending.envelope.ttl = static_cast<std::uint8_t>(envelope.ttl - 1);

    radio_.send(hop, pending.envelope);
    arm_retransmit(key, pending);
}

void ReliableTransport::arm_retransmit(std::uint64_t key, PendingHop& pending) {
    pending.timer = sim_->schedule(params_.ack_timeout, [this, key] {
        auto it = pending_.find(key);
        if (it == pending_.end()) return;  // acked meanwhile
        if (it->second.retries_left == 0) {
            ++gave_up_;
            pending_.erase(it);
            return;
        }
        --it->second.retries_left;
        ++retransmissions_;
        radio_.send(it->second.next_hop, it->second.envelope);
        arm_retransmit(key, it->second);
    });
}

std::optional<Delivered> ReliableTransport::on_packet(const Packet& packet) {
    if (const auto* ack = packet.as<RelayAckPayload>()) {
        const std::uint64_t key = make_key(ack->source, ack->seq);
        auto it = pending_.find(key);
        if (it != pending_.end() && packet.src == it->second.next_hop) {
            sim_->cancel(it->second.timer);
            pending_.erase(it);
        }
        return std::nullopt;
    }

    const auto* env = packet.as<RelayEnvelopePayload>();
    if (!env) return std::nullopt;

    // Hop-by-hop ack, including for duplicates (the ack may have been the
    // thing that was lost).
    RelayAckPayload ack;
    ack.source = env->source;
    ack.seq = env->seq;
    radio_.send(packet.src, ack);

    const std::uint64_t key = make_key(env->source, env->seq);
    if (!seen_.insert(key).second) {
        ++duplicates_;
        return std::nullopt;
    }

    if (env->final_dst == id()) {
        Delivered d;
        d.source = env->source;
        d.report = env->report;
        return d;
    }

    ++forwarded_;
    transmit_hop(*env);
    return std::nullopt;
}

}  // namespace tibfit::net
