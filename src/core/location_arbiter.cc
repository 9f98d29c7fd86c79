#include "core/location_arbiter.h"

#include <algorithm>
#include <stdexcept>

namespace tibfit::core {

LocationArbiter::LocationArbiter(TrustManager& trust, DecisionPolicy policy,
                                 double sensing_radius, double r_error)
    : trust_(&trust),
      policy_(policy),
      sensing_radius_(sensing_radius),
      clusterer_(r_error) {
    if (!(sensing_radius > 0.0)) {
        throw std::invalid_argument("LocationArbiter: sensing_radius must be > 0");
    }
}

void LocationArbiter::release_scratch() {
    reported_ = {};
    kept_ = {};
    locations_ = {};
    clusters_ = {};
    clusterer_.release_scratch();
}

std::vector<LocationDecision> LocationArbiter::decide(
    std::span<const EventReport> reports, std::span<const util::Vec2> node_positions,
    bool apply_trust_updates) {
    const bool stateful = policy_ == DecisionPolicy::TrustIndex;

    // Deduplicate: one (earliest) located report per node. Nodes the trust
    // table has diagnosed and isolated are "removed from the network"
    // (Section 3.1): their reports do not even reach the clusterer, so
    // they can no longer drag a cluster's centre of gravity.
    const std::size_t n_nodes = node_positions.size();
    if (reported_.size() < n_nodes) reported_.resize(n_nodes);
    kept_.clear();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const NodeId r = reports[i].reporter;
        if (!reports[i].has_location()) continue;
        if (r >= n_nodes) continue;
        if (stateful && trust_->is_isolated(r)) continue;
        if (reported_[r]) continue;
        reported_[r] = 1;
        kept_.push_back(i);
    }
    for (std::size_t i : kept_) reported_[reports[i].reporter] = 0;

    locations_.clear();
    for (std::size_t i : kept_) locations_.push_back(*reports[i].location);

    clusterer_.cluster(locations_, clusters_);

    // A reporter within r_s of the cg is an expected sensor of the event; we
    // extend the plausibility cutoff by r_error so a correct node right at
    // the sensing edge is not thrown out purely because the cg estimate
    // moved by the allowed localization error.
    const double plaus = sensing_radius_ + clusterer_.r_error();
    const double rs2 = sensing_radius_ * sensing_radius_;
    const double plaus2 = plaus * plaus;

    std::vector<LocationDecision> out;
    out.reserve(clusters_.size());

    for (const auto& cl : clusters_) {
        LocationDecision d;
        d.location = cl.cg;
        d.reporters.reserve(cl.members.size());  // one kept report per member

        // Optional refinement: weight each member report by its reporter's
        // trust so distrusted nodes cannot drag the location estimate.
        if (weighted_location_ && stateful) {
            util::Vec2 sum;
            double total = 0.0;
            for (std::size_t m : cl.members) {
                const auto& r = reports[kept_[m]];
                const double w = trust_->ti(r.reporter);
                sum += *r.location * w;
                total += w;
            }
            if (total > 1e-9) d.location = sum / total;
        }

        // Partition: reporters into this cluster (plausible ones), silent
        // event neighbours, and thrown-out reporters. Weights are summed in
        // ascending id order.
        for (std::size_t m : cl.members) reported_[reports[kept_[m]].reporter] = 1;
        for (NodeId n = 0; n < n_nodes; ++n) {
            if (stateful && trust_->is_isolated(n)) continue;
            const double d2 = util::distance2(node_positions[n], d.location);
            if (reported_[n]) {
                if (d2 <= plaus2) {
                    d.reporters.push_back(n);
                    d.weight_reporters += stateful ? trust_->ti(n) : 1.0;
                } else {
                    d.thrown_out.push_back(n);
                }
            } else if (d2 <= rs2) {
                d.silent.push_back(n);
                d.weight_silent += stateful ? trust_->ti(n) : 1.0;
            }
        }
        for (std::size_t m : cl.members) reported_[reports[kept_[m]].reporter] = 0;

        d.event_declared = !d.reporters.empty() && d.weight_reporters >= d.weight_silent;

        if (stateful && apply_trust_updates) {
            const auto& winners = d.event_declared ? d.reporters : d.silent;
            const auto& losers = d.event_declared ? d.silent : d.reporters;
            for (NodeId n : winners) trust_->judge_correct(n);
            for (NodeId n : losers) trust_->judge_faulty(n);
            // Claiming an event from an implausible position is a false
            // alarm regardless of the vote's outcome.
            for (NodeId n : d.thrown_out) trust_->judge_faulty(n);
        }
        out.push_back(std::move(d));
    }
    return out;
}

}  // namespace tibfit::core
