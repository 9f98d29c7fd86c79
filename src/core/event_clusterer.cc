#include "core/event_clusterer.h"

#include <algorithm>
#include <stdexcept>

#include "obs/names.h"
#include "obs/recorder.h"
#include "util/geometry.h"
#include "util/invariant.h"
#include "util/log.h"

namespace tibfit::core {

namespace {

/// Nearest-centre assignment: per-point centre index, into `assign`.
void assign_nearest(std::span<const util::Vec2> points, std::span<const util::Vec2> centres,
                    std::vector<std::size_t>& assign) {
    assign.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        assign[i] = util::nearest_index(centres, points[i]);
    }
}

/// Centres of gravity per cluster into (`cgs`, `sizes`); drops empty
/// clusters and compacts the assignment accordingly. `sums`, `counts` and
/// `remap` are scratch.
void recompute_cgs(std::span<const util::Vec2> points, std::vector<std::size_t>& assign,
                   std::size_t ncentres, std::vector<util::Vec2>& cgs,
                   std::vector<std::size_t>& sizes, std::vector<util::Vec2>& sums,
                   std::vector<std::size_t>& counts, std::vector<std::size_t>& remap) {
    sums.assign(ncentres, util::Vec2{});
    counts.assign(ncentres, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        sums[assign[i]] += points[i];
        ++counts[assign[i]];
    }
    // Compact away empty clusters, remapping assignments.
    cgs.clear();
    sizes.clear();
    remap.assign(ncentres, 0);
    for (std::size_t c = 0; c < ncentres; ++c) {
        if (counts[c] == 0) continue;
        remap[c] = cgs.size();
        cgs.push_back(sums[c] / static_cast<double>(counts[c]));
        sizes.push_back(counts[c]);
    }
    for (auto& a : assign) a = remap[a];
}

/// Step 5: merges all groups of centres lying within r_error of each other
/// (transitively) into their size-weighted average. Returns true if any
/// merge happened. The merged centres are built in `merged`/`merged_sizes`
/// and swapped in; `parent`, `root_to_new`, `weighted_sum` and `weight`
/// are scratch.
bool merge_close_centres(std::vector<util::Vec2>& centres, std::vector<std::size_t>& sizes,
                         double r_error, std::vector<util::Vec2>& merged,
                         std::vector<std::size_t>& merged_sizes,
                         std::vector<std::size_t>& parent,
                         std::vector<std::size_t>& root_to_new,
                         std::vector<util::Vec2>& weighted_sum,
                         std::vector<std::size_t>& weight) {
    const std::size_t n = centres.size();
    if (n < 2) return false;

    // Union-find over centres closer than r_error.
    parent.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](std::size_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
    };

    bool any = false;
    const double r2 = r_error * r_error;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (util::distance2(centres[i], centres[j]) <= r2) {
                const std::size_t a = find(i), b = find(j);
                if (a != b) {
                    parent[b] = a;
                    any = true;
                }
            }
        }
    }
    if (!any) return false;

    merged.clear();
    merged_sizes.clear();
    root_to_new.assign(n, static_cast<std::size_t>(-1));
    weighted_sum.assign(n, util::Vec2{});
    weight.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = find(i);
        weighted_sum[r] += centres[i] * static_cast<double>(sizes[i]);
        weight[r] += sizes[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = find(i);
        if (root_to_new[r] != static_cast<std::size_t>(-1)) continue;
        root_to_new[r] = merged.size();
        merged.push_back(weighted_sum[r] / static_cast<double>(weight[r]));
        merged_sizes.push_back(weight[r]);
    }
    centres.swap(merged);
    sizes.swap(merged_sizes);
    return true;
}

}  // namespace

EventClusterer::EventClusterer(double r_error, std::size_t max_rounds)
    : r_error_(r_error), max_rounds_(max_rounds) {
    if (!(r_error > 0.0)) throw std::invalid_argument("EventClusterer: r_error must be > 0");
    if (max_rounds == 0) throw std::invalid_argument("EventClusterer: max_rounds must be > 0");
}

void EventClusterer::cluster(std::span<const util::Vec2> points,
                             std::vector<EventCluster>& out) {
    run(points, scratch_, out);
}

std::vector<EventCluster> EventClusterer::cluster(std::span<const util::Vec2> points) const {
    Scratch scratch;
    std::vector<EventCluster> out;
    run(points, scratch, out);
    return out;
}

void EventClusterer::run(std::span<const util::Vec2> points, Scratch& s,
                         std::vector<EventCluster>& out) const {
    if (points.size() <= 1) {
        out.resize(points.size());
        if (!points.empty()) {
            out[0].cg = points[0];
            out[0].members.assign(1, 0);
        }
        return;
    }

    // Steps 1-2: seed with the farthest pair...
    s.seeds.clear();
    const auto [i0, i1] = util::farthest_pair(points);
    if (util::distance(points[i0], points[i1]) <= r_error_) {
        // ... unless everything already fits one r_error disc: one cluster.
        s.seeds.push_back(points[i0]);
    } else {
        s.seeds.push_back(points[i0]);
        s.seeds.push_back(points[i1]);
    }

    // Step 3: grow centres until every report is within r_error of one.
    const double r2 = r_error_ * r_error_;
    bool grew = true;
    while (grew) {
        grew = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
            bool covered = false;
            for (const auto& c : s.seeds) {
                if (util::distance2(points[i], c) <= r2) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                s.seeds.push_back(points[i]);
                grew = true;
            }
        }
    }

    // Step 4: nearest-centre assignment + cg update.
    assign_nearest(points, s.seeds, s.assign);
    recompute_cgs(points, s.assign, s.seeds.size(), s.cgs, s.sizes, s.sums, s.counts, s.index);

    // Step 5: merge-close-centres / reassign rounds until the constituency
    // stops changing (or the round cap is hit). Each round builds the next
    // constituency in the next_* buffers, then swaps them in.
    bool converged = false;
    for (std::size_t round = 0; round < max_rounds_; ++round) {
        const bool merged = merge_close_centres(s.cgs, s.sizes, r_error_, s.next_cgs,
                                                s.next_sizes, s.parent, s.index, s.sums,
                                                s.counts);
        assign_nearest(points, s.cgs, s.next_assign);
        recompute_cgs(points, s.next_assign, s.cgs.size(), s.next_cgs, s.next_sizes, s.sums,
                      s.counts, s.index);
        const bool stable = !merged && s.next_assign == s.assign;
        s.assign.swap(s.next_assign);
        s.cgs.swap(s.next_cgs);
        s.sizes.swap(s.next_sizes);
        if (stable) {
            converged = true;
            break;
        }
    }
    if (!converged) {
        util::log_warn() << "EventClusterer: refinement truncated at max_rounds=" << max_rounds_
                         << " with " << points.size()
                         << " points; constituency may not be a fixpoint";
        if (recorder_) {
            recorder_->metrics().counter(obs::metric::kClustererRoundCapHits).inc();
        }
    }

    // Postconditions at a fixpoint: clusters partition the input by
    // nearest centre (each member's own cg bounds its Voronoi disc) and
    // no two surviving centres lie within r_error (step 5 would have
    // merged them). Both only hold when the loop actually converged.
    if (util::invariant_checks_on() && converged) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            TIBFIT_CHECK(s.assign[i] == util::nearest_index(s.cgs, points[i]),
                         "point " + std::to_string(i) + " not assigned to its nearest centre");
        }
        for (std::size_t a = 0; a < s.cgs.size(); ++a) {
            for (std::size_t b = a + 1; b < s.cgs.size(); ++b) {
                TIBFIT_CHECK(util::distance2(s.cgs[a], s.cgs[b]) > r2,
                             "surviving centres " + std::to_string(a) + " and " +
                                 std::to_string(b) + " within r_error");
            }
        }
    }

    out.resize(s.cgs.size());
    for (std::size_t c = 0; c < s.cgs.size(); ++c) {
        out[c].cg = s.cgs[c];
        out[c].members.clear();
    }
    for (std::size_t i = 0; i < points.size(); ++i) out[s.assign[i]].members.push_back(i);
}

}  // namespace tibfit::core
