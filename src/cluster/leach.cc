#include "cluster/leach.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tibfit::cluster {

LeachElection::LeachElection(LeachParams params, util::Rng rng)
    : params_(params), rng_(rng) {
    if (!(params.ch_fraction > 0.0) || params.ch_fraction > 1.0) {
        throw std::invalid_argument("LeachElection: ch_fraction must be in (0, 1]");
    }
}

std::uint32_t LeachElection::epoch_length() const {
    return static_cast<std::uint32_t>(std::ceil(1.0 / params_.ch_fraction));
}

bool LeachElection::served_this_epoch(std::uint32_t round, sim::ProcessId id) const {
    auto it = last_served_round_.find(id);
    if (it == last_served_round_.end()) return false;
    const std::uint32_t epoch = epoch_length();
    return it->second / epoch == round / epoch;
}

double LeachElection::threshold(std::uint32_t round, const Candidate& c) const {
    if (c.ti < params_.ti_threshold) return 0.0;       // the paper's TI gate
    if (c.energy_fraction <= 0.0) return 0.0;          // dead nodes can't lead
    if (served_this_epoch(round, c.id)) return 0.0;    // classic LEACH G-set
    const double p = params_.ch_fraction;
    const double denom = 1.0 - p * static_cast<double>(round % epoch_length());
    const double t = denom > 0.0 ? p / denom : 1.0;
    return std::min(1.0, t * c.energy_fraction);
}

ElectionResult LeachElection::run_round(std::uint32_t round,
                                        std::span<const Candidate> candidates) {
    ElectionResult result;
    if (candidates.empty()) return result;

    for (const auto& c : candidates) {
        if (rng_.chance(threshold(round, c))) result.heads.push_back(c.id);
    }

    if (result.heads.empty()) {
        // Draft fallback: most energetic TI-eligible candidate, else (base
        // station re-initiation) the highest-TI candidate.
        const Candidate* best = nullptr;
        for (const auto& c : candidates) {
            if (c.ti < params_.ti_threshold || c.energy_fraction <= 0.0) continue;
            if (!best || c.energy_fraction > best->energy_fraction) best = &c;
        }
        if (!best) {
            for (const auto& c : candidates) {
                if (!best || c.ti > best->ti) best = &c;
            }
        }
        result.heads.push_back(best->id);
        result.drafted = true;
    }

    for (sim::ProcessId h : result.heads) last_served_round_[h] = round;
    return result;
}

namespace {
/// Energy billing approximations (bits per message, metres).
constexpr std::size_t kReportBits = 2000;
constexpr std::size_t kUplinkBits = 4000;  ///< a head's aggregate to the base station
constexpr double kUplinkDistance = 120.0;  ///< head -> base station
constexpr double kUnaffiliatedDistance = 30.0;  ///< a report sent to no co-located head
/// How long nodes listen for CH advertisements before affiliating.
constexpr double kAffiliationWindow = 0.5;
/// A new head fetches the archive once the retiring heads' deposits have
/// reached the base station.
constexpr double kArchiveFetchDelay = 0.05;
}  // namespace

LeachRounds::LeachRounds(sim::Simulator& sim, util::Rng rng, LeachParams params,
                         double initial_energy,
                         std::span<const std::unique_ptr<sensor::SensorNode>> nodes,
                         std::span<const std::unique_ptr<ClusterHead>> hosts,
                         const BaseStation& station)
    : sim_(&sim),
      election_(params, rng),
      nodes_(nodes),
      hosts_(hosts),
      station_(&station),
      batteries_(nodes.size(), Battery(initial_energy)),
      reports_billed_(nodes.size(), 0) {}

void LeachRounds::start(double round_duration, double until) {
    round_duration_ = round_duration;
    until_ = until;
    sim_->schedule(0.0, [this] { run_round(); });
}

std::size_t LeachRounds::host_index(sim::ProcessId sink) const {
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (hosts_[i]->id() == sink) return i;
    }
    return nodes_.size();
}

void LeachRounds::bill_energy() {
    // Members pay per report transmitted since the last bill; active heads
    // pay reception for those reports plus one aggregate uplink.
    const EnergyParams energy;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const std::size_t sent = nodes_[i]->reports_sent();
        const std::size_t fresh = sent - reports_billed_[i];
        reports_billed_[i] = sent;
        if (fresh == 0) continue;
        const std::size_t head = host_index(nodes_[i]->cluster_head());
        const bool hosted = head < nodes_.size();
        const double dist = hosted ? util::distance(nodes_[i]->position(), nodes_[head]->position())
                                   : kUnaffiliatedDistance;
        batteries_[i].consume(static_cast<double>(fresh) * tx_cost(energy, kReportBits, dist));
        if (hosted) {
            batteries_[head].consume(static_cast<double>(fresh) * rx_cost(energy, kReportBits));
        }
    }
    for (sim::ProcessId h : active_heads_) {
        batteries_[h].consume(tx_cost(energy, kUplinkBits, kUplinkDistance));
    }
}

void LeachRounds::run_round() {
    bill_energy();

    // Retire the previous heads (their trust tables go to the archive).
    for (sim::ProcessId h : active_heads_) hosts_[h]->end_leadership();
    active_heads_.clear();

    // Candidates: alive nodes, judged by archive trust + battery.
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (batteries_[i].depleted()) continue;
        const auto id = static_cast<sim::ProcessId>(i);
        candidates.push_back({id, batteries_[i].fraction(), station_->archive().ti(id)});
    }

    RoundRecord rec;
    rec.alive = candidates.size();
    if (!candidates.empty()) {
        // The election itself is local knowledge (each node flips its own
        // LEACH coin); cluster formation happens over the air: the new
        // heads broadcast advertisements, the other nodes collect them for
        // an affiliation window and join the strongest signal.
        const auto round = static_cast<std::uint32_t>(rounds_.size());
        const ElectionResult result = election_.run_round(round, candidates);
        rec.heads = result.heads;
        rec.drafted = result.drafted;

        std::vector<bool> is_head(nodes_.size(), false);
        for (const sim::ProcessId h : result.heads) {
            is_head[h] = true;
            ClusterHead* host = hosts_[h].get();
            host->set_active(true);
            host->advertise(round, static_cast<core::NodeId>(h));
            // A head's own sensor reports to its co-located CH role.
            nodes_[h]->set_cluster_head(host->id());
            sim_->schedule(kArchiveFetchDelay, [host] { host->request_archive(); });
            active_heads_.push_back(h);
            if (nodes_[h]->node_class() != sensor::NodeClass::Correct) ++rec.compromised_heads;
        }
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (is_head[i] || batteries_[i].depleted()) continue;
            nodes_[i]->begin_affiliation(kAffiliationWindow);
        }
    }
    // Depleted nodes drop their sink. (One re-adopts the next advertiser it
    // hears and keeps reporting: docs/PROTOCOL.md §6.)
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (batteries_[i].depleted()) nodes_[i]->set_cluster_head(sim::kNoProcess);
    }
    rounds_.push_back(std::move(rec));

    if (sim_->now() + round_duration_ < until_) {
        sim_->schedule(round_duration_, [this] { run_round(); });
    }
}

}  // namespace tibfit::cluster
