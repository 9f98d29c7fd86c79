#include "cluster/base_station.h"

namespace tibfit::cluster {

BaseStation::BaseStation(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                         core::TrustParams trust_params, double alert_wait)
    : sim::Process(sim, id),
      radio_(radio),
      archive_(trust_params),
      ch_trust_(trust_params),
      alert_wait_(alert_wait) {}

double BaseStation::ch_trust(sim::ProcessId ch) const {
    return ch_trust_.ti(static_cast<core::NodeId>(ch));
}

void BaseStation::handle_packet(const net::Packet& packet) {
    if (const auto* transfer = packet.as<net::TiTransferPayload>()) {
        // End-of-leadership archive deposit. Merge: multi-cluster
        // deployments deposit per-cluster tables that must not clobber
        // each other.
        archive_.merge_v(transfer->v_values);
    } else if (packet.as<net::TiRequestPayload>()) {
        // New leader requesting the archive.
        net::TiTransferPayload reply;
        reply.v_values = archive_.export_v();
        radio_.send(packet.src, std::move(reply));
    } else if (const auto* decision = packet.as<net::DecisionPayload>()) {
        // Whichever copy of the decision arrives first opens the vote: the
        // CH's unicast, or its broadcast if we are in range (so the base
        // station must consume broadcast decisions). Later copies dedupe
        // by key.
        const std::uint64_t key = vote_key(packet.src, decision->decision_seq);
        if (pending_.count(key)) return;
        PendingVote v;
        v.seq = decision->decision_seq;
        v.ch = packet.src;
        v.announced = *decision;
        pending_.emplace(key, std::move(v));
        sim().schedule(alert_wait_, [this, key] { finalize(key); });
    } else if (const auto* alert = packet.as<net::SchAlertPayload>()) {
        // A shadow disputes a CH announcement. The alert may arrive before
        // the CH's own copy (independent channel delays): buffer it then.
        for (auto& [key, vote] : pending_) {
            if (vote.seq == alert->decision_seq) {
                ++vote.disagreements;
                vote.shadow_conclusion = alert->event_declared;
                vote.shadow_location = alert->location;
                return;
            }
        }
        // No matching vote yet: create a placeholder keyed by seq alone so
        // the CH copy (or the timer) can still resolve it.
        PendingVote v;
        v.seq = alert->decision_seq;
        v.ch = sim::kNoProcess;
        v.disagreements = 1;
        v.shadow_conclusion = alert->event_declared;
        v.shadow_location = alert->location;
        const std::uint64_t key = vote_key(sim::kNoProcess, alert->decision_seq);
        pending_.emplace(key, std::move(v));
        sim().schedule(alert_wait_, [this, key] { finalize(key); });
    }
}

void BaseStation::finalize(std::uint64_t key) {
    auto it = pending_.find(key);
    if (it == pending_.end()) return;
    PendingVote vote = std::move(it->second);
    pending_.erase(it);

    // Merge a placeholder (alert arrived first) with the CH copy if both
    // exist: the CH-keyed entry absorbs the placeholder's disagreements.
    if (vote.ch == sim::kNoProcess) {
        for (auto& [k2, v2] : pending_) {
            if (v2.seq == vote.seq && v2.ch != sim::kNoProcess) {
                v2.disagreements += vote.disagreements;
                v2.shadow_conclusion = vote.shadow_conclusion;
                v2.shadow_location = vote.shadow_location;
                return;  // the CH-keyed finalize will complete the vote
            }
        }
        return;  // alert with no CH announcement at all: nothing to decide
    }

    FinalDecision f;
    f.seq = vote.seq;
    f.time = sim().now();
    f.has_location = vote.announced.has_location;

    // Simple vote over three conclusions: the CH plus two shadows. A
    // silent shadow agrees. Two dissents outvote the CH.
    const bool outvoted = vote.disagreements >= 2;
    if (outvoted) {
        f.event_declared = vote.shadow_conclusion;
        f.location = vote.shadow_location;
        f.overridden = true;
        ++overrides_;
        ch_trust_.judge_faulty(static_cast<core::NodeId>(vote.ch));
        if (reelect_cb_) reelect_cb_(vote.ch);
    } else {
        f.event_declared = vote.announced.event_declared;
        f.location = vote.announced.location;
        ch_trust_.judge_correct(static_cast<core::NodeId>(vote.ch));
    }
    finals_.push_back(f);
}

}  // namespace tibfit::cluster
