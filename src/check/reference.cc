#include "check/reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/geometry.h"

namespace tibfit::check {

// ---------------------------------------------------------------------------
// RefTrustTable
// ---------------------------------------------------------------------------

RefTrustTable::Entry& RefTrustTable::record(core::NodeId node) {
    if (node == core::kNoNode) {
        throw std::invalid_argument("RefTrustTable: cannot record history for kNoNode");
    }
    if (node >= entries_.size()) entries_.resize(node + 1);
    Entry& e = entries_[node];
    e.seen = true;  // touching marks the node seen, even at v = 0
    return e;
}

double RefTrustTable::v(core::NodeId node) const {
    return node < entries_.size() && entries_[node].seen ? entries_[node].v : 0.0;
}

double RefTrustTable::ti(core::NodeId node) const {
    if (node >= entries_.size() || !entries_[node].seen) return 1.0;
    const Entry& e = entries_[node];
    const auto bits = std::bit_cast<std::uint64_t>(e.v);
    if (!e.cached || e.ti_of != bits) {
        e.ti = std::exp(-params_.lambda * e.v);
        e.ti_of = bits;
        e.cached = true;
    }
    return e.ti;
}

bool RefTrustTable::is_isolated(core::NodeId node) const {
    if (params_.removal_ti <= 0.0) return false;
    return ti(node) < params_.removal_ti;
}

void RefTrustTable::judge_correct(core::NodeId node) {
    double& v = record(node).v;
    v -= params_.fault_rate;
    if (v < 0.0) v = 0.0;
}

void RefTrustTable::judge_faulty(core::NodeId node) {
    record(node).v += 1.0 - params_.fault_rate;
}

void RefTrustTable::quarantine(core::NodeId node) {
    double target_v = 10.0 / params_.lambda * 0.25;
    if (params_.removal_ti > 0.0) {
        const double capped = params_.removal_ti < 1.0 ? params_.removal_ti : 1.0;
        target_v = -std::log(capped * 0.5) / params_.lambda;
    }
    double& v = record(node).v;
    if (v < target_v) v = target_v < 0.0 ? 0.0 : target_v;
}

void RefTrustTable::reset_from(const core::TrustManager& trust) {
    params_ = trust.params();
    entries_.clear();  // lambda may differ: no cached TI survives
    for (const auto& [node, v] : trust.export_v()) {
        record(node).v = v < 0.0 ? 0.0 : v;  // same clamp as TrustManager::merge_v
    }
}

std::vector<std::pair<core::NodeId, double>> RefTrustTable::export_v() const {
    std::vector<std::pair<core::NodeId, double>> out;
    for (core::NodeId n = 0; n < entries_.size(); ++n) {
        if (entries_[n].seen) out.emplace_back(n, entries_[n].v);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Binary arbitration (Section 3.1)
// ---------------------------------------------------------------------------

core::BinaryDecision ref_binary_decide(RefTrustTable& trust, core::DecisionPolicy policy,
                                       std::span<const core::NodeId> event_neighbours,
                                       std::span<const core::NodeId> reporters,
                                       bool apply_trust_updates) {
    const bool stateful = policy == core::DecisionPolicy::TrustIndex;

    core::BinaryDecision d;
    // Scan the neighbours in presentation order, accumulating each side's
    // CTI as its members are encountered — the same interleaved
    // accumulation sequence the optimised arbiter uses.
    for (core::NodeId n : event_neighbours) {
        if (stateful && trust.is_isolated(n)) continue;
        const double w = stateful ? trust.ti(n) : 1.0;
        const bool reported =
            std::find(reporters.begin(), reporters.end(), n) != reporters.end();
        if (reported) {
            d.reporters.push_back(n);
            d.weight_reporters += w;
        } else {
            d.silent.push_back(n);
            d.weight_silent += w;
        }
    }
    std::sort(d.reporters.begin(), d.reporters.end());
    std::sort(d.silent.begin(), d.silent.end());

    // Ties go to the event (paper: "the CH declares the event").
    d.event_declared = d.weight_reporters >= d.weight_silent;

    if (stateful && apply_trust_updates) {
        const auto& winners = d.event_declared ? d.reporters : d.silent;
        const auto& losers = d.event_declared ? d.silent : d.reporters;
        for (core::NodeId n : winners) trust.judge_correct(n);
        for (core::NodeId n : losers) trust.judge_faulty(n);
    }
    return d;
}

// ---------------------------------------------------------------------------
// Clustering (Section 3.2, steps 1-5)
// ---------------------------------------------------------------------------

namespace {

std::size_t ref_nearest(const std::vector<util::Vec2>& centres, util::Vec2 p) {
    std::size_t best = 0;
    double best_d2 = util::distance2(centres[0], p);
    for (std::size_t c = 1; c < centres.size(); ++c) {
        const double d2 = util::distance2(centres[c], p);
        if (d2 < best_d2) {  // strict: ties keep the lowest index
            best_d2 = d2;
            best = c;
        }
    }
    return best;
}

std::pair<std::size_t, std::size_t> ref_farthest_pair(std::span<const util::Vec2> points) {
    std::pair<std::size_t, std::size_t> best{0, 1};
    double best_d2 = util::distance2(points[0], points[1]);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            const double d2 = util::distance2(points[i], points[j]);
            if (d2 > best_d2) {  // strict: ties keep the earliest pair
                best_d2 = d2;
                best = {i, j};
            }
        }
    }
    return best;
}

std::vector<std::size_t> ref_assign(std::span<const util::Vec2> points,
                                    const std::vector<util::Vec2>& centres) {
    std::vector<std::size_t> assign(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) assign[i] = ref_nearest(centres, points[i]);
    return assign;
}

/// Step-4 centre-of-gravity update: per-centre sums accumulate members in
/// ascending point order; empty centres are compacted away preserving the
/// survivors' order.
std::pair<std::vector<util::Vec2>, std::vector<std::size_t>> ref_recompute(
    std::span<const util::Vec2> points, std::vector<std::size_t>& assign,
    std::size_t ncentres) {
    std::vector<util::Vec2> sums(ncentres);
    std::vector<std::size_t> sizes(ncentres, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        sums[assign[i]] += points[i];
        ++sizes[assign[i]];
    }
    std::vector<util::Vec2> centres;
    std::vector<std::size_t> out_sizes;
    std::vector<std::size_t> remap(ncentres, 0);
    for (std::size_t c = 0; c < ncentres; ++c) {
        if (sizes[c] == 0) continue;
        remap[c] = centres.size();
        centres.push_back(sums[c] / static_cast<double>(sizes[c]));
        out_sizes.push_back(sizes[c]);
    }
    for (auto& a : assign) a = remap[a];
    return {std::move(centres), std::move(out_sizes)};
}

/// Step 5: replace every transitive group of centres within r_error with
/// its size-weighted average. Components come from repeated relabelling
/// sweeps (each label converges to its component's smallest index);
/// groups emit in order of smallest member, accumulating members
/// ascending — the same output order and summation sequence as the
/// optimised union-find version.
bool ref_merge_close(std::vector<util::Vec2>& centres, std::vector<std::size_t>& sizes,
                     double r_error) {
    const std::size_t n = centres.size();
    if (n < 2) return false;
    const double r2 = r_error * r_error;

    std::vector<std::size_t> comp(n);
    for (std::size_t i = 0; i < n; ++i) comp[i] = i;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (comp[i] == comp[j]) continue;
                if (util::distance2(centres[i], centres[j]) > r2) continue;
                const std::size_t lo = std::min(comp[i], comp[j]);
                const std::size_t hi = std::max(comp[i], comp[j]);
                for (auto& c : comp) {
                    if (c == hi) c = lo;
                }
                changed = true;
            }
        }
    }

    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (comp[i] != i) any = true;
    }
    if (!any) return false;

    std::vector<util::Vec2> merged;
    std::vector<std::size_t> merged_sizes;
    for (std::size_t i = 0; i < n; ++i) {
        if (comp[i] != i) continue;  // emit once per component, at its min
        util::Vec2 wsum;
        std::size_t weight = 0;
        for (std::size_t k = i; k < n; ++k) {
            if (comp[k] != i) continue;
            wsum += centres[k] * static_cast<double>(sizes[k]);
            weight += sizes[k];
        }
        merged.push_back(wsum / static_cast<double>(weight));
        merged_sizes.push_back(weight);
    }
    centres = std::move(merged);
    sizes = std::move(merged_sizes);
    return true;
}

}  // namespace

std::vector<core::EventCluster> ref_cluster(std::span<const util::Vec2> points, double r_error,
                                            std::size_t max_rounds) {
    std::vector<core::EventCluster> out;
    if (points.empty()) return out;
    if (points.size() == 1) {
        out.push_back({points[0], {0}});
        return out;
    }

    // Steps 1-2: seed with the farthest pair, or one centre if everything
    // already fits a single r_error disc.
    std::vector<util::Vec2> centres;
    const auto [i0, i1] = ref_farthest_pair(points);
    if (util::distance(points[i0], points[i1]) <= r_error) {
        centres.push_back(points[i0]);
    } else {
        centres.push_back(points[i0]);
        centres.push_back(points[i1]);
    }

    // Step 3: any report farther than r_error from every centre becomes a
    // new centre, rescanning until covered.
    const double r2 = r_error * r_error;
    bool grew = true;
    while (grew) {
        grew = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
            bool covered = false;
            for (const auto& c : centres) {
                if (util::distance2(points[i], c) <= r2) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                centres.push_back(points[i]);
                grew = true;
            }
        }
    }

    // Step 4.
    auto assign = ref_assign(points, centres);
    auto [cgs, sizes] = ref_recompute(points, assign, centres.size());

    // Step 5: merge/reassign to a constituency fixpoint (or the cap).
    for (std::size_t round = 0; round < max_rounds; ++round) {
        const bool merged = ref_merge_close(cgs, sizes, r_error);
        auto new_assign = ref_assign(points, cgs);
        auto [new_cgs, new_sizes] = ref_recompute(points, new_assign, cgs.size());
        const bool stable = !merged && new_assign == assign;
        assign = std::move(new_assign);
        cgs = std::move(new_cgs);
        sizes = std::move(new_sizes);
        if (stable) break;
    }

    out.resize(cgs.size());
    for (std::size_t c = 0; c < cgs.size(); ++c) out[c].cg = cgs[c];
    for (std::size_t i = 0; i < points.size(); ++i) out[assign[i]].members.push_back(i);
    return out;
}

// ---------------------------------------------------------------------------
// Location arbitration (Sections 3.2-3.3)
// ---------------------------------------------------------------------------

std::vector<core::LocationDecision> ref_location_decide(
    RefTrustTable& trust, core::DecisionPolicy policy, double sensing_radius, double r_error,
    std::size_t max_rounds, bool weighted_location, std::span<const core::EventReport> reports,
    std::span<const util::Vec2> node_positions, bool apply_trust_updates) {
    const bool stateful = policy == core::DecisionPolicy::TrustIndex;

    // One (earliest) located report per non-isolated node, kept in input
    // order.
    std::vector<std::size_t> kept;
    std::vector<core::NodeId> seen;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (!reports[i].has_location()) continue;
        if (reports[i].reporter >= node_positions.size()) continue;
        if (stateful && trust.is_isolated(reports[i].reporter)) continue;
        if (std::find(seen.begin(), seen.end(), reports[i].reporter) != seen.end()) continue;
        seen.push_back(reports[i].reporter);
        kept.push_back(i);
    }

    std::vector<util::Vec2> locations;
    locations.reserve(kept.size());
    for (std::size_t i : kept) locations.push_back(*reports[i].location);

    const auto clusters = ref_cluster(locations, r_error, max_rounds);

    const double plaus = sensing_radius + r_error;
    const double rs2 = sensing_radius * sensing_radius;
    const double plaus2 = plaus * plaus;

    std::vector<core::LocationDecision> out;
    out.reserve(clusters.size());

    for (const auto& cl : clusters) {
        core::LocationDecision d;
        d.location = cl.cg;

        if (weighted_location && stateful) {
            util::Vec2 sum;
            double total = 0.0;
            for (std::size_t m : cl.members) {
                const auto& r = reports[kept[m]];
                const double w = trust.ti(r.reporter);
                sum += *r.location * w;
                total += w;
            }
            if (total > 1e-9) d.location = sum / total;
        }

        std::vector<core::NodeId> cluster_reporters;
        for (std::size_t m : cl.members) cluster_reporters.push_back(reports[kept[m]].reporter);

        for (core::NodeId n = 0; n < node_positions.size(); ++n) {
            if (stateful && trust.is_isolated(n)) continue;
            const double d2 = util::distance2(node_positions[n], d.location);
            const bool is_reporter = std::find(cluster_reporters.begin(),
                                               cluster_reporters.end(), n) !=
                                     cluster_reporters.end();
            if (is_reporter) {
                if (d2 <= plaus2) {
                    d.reporters.push_back(n);
                    d.weight_reporters += stateful ? trust.ti(n) : 1.0;
                } else {
                    d.thrown_out.push_back(n);
                }
            } else if (d2 <= rs2) {
                d.silent.push_back(n);
                d.weight_silent += stateful ? trust.ti(n) : 1.0;
            }
        }

        d.event_declared = !d.reporters.empty() && d.weight_reporters >= d.weight_silent;

        // Trust updates apply per cluster, inside the loop: later clusters
        // of the same group see the updated TIs — exactly like the
        // optimised arbiter.
        if (stateful && apply_trust_updates) {
            const auto& winners = d.event_declared ? d.reporters : d.silent;
            const auto& losers = d.event_declared ? d.silent : d.reporters;
            for (core::NodeId n : winners) trust.judge_correct(n);
            for (core::NodeId n : losers) trust.judge_faulty(n);
            for (core::NodeId n : d.thrown_out) trust.judge_faulty(n);
        }
        out.push_back(std::move(d));
    }
    return out;
}

}  // namespace tibfit::check
