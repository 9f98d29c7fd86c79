// Section 3.2 — grouping event reports into event clusters.
//
// The CH receives k location reports inside a T_out window and must decide
// how many distinct events they describe and where. The paper gives a
// K-means-style heuristic:
//
//   (1) compute all pairwise distances;
//   (2) seed two clusters at the farthest pair of reports;
//   (3) any report farther than r_error from every existing centre becomes
//       a new centre, until no report can form a separate cluster;
//   (4) assign the remaining reports to the nearest centre and update each
//       cluster's centre of gravity (cg);
//   (5) if two or more centres lie within r_error of each other, replace
//       them with their weighted average and repeat; rounds run until no
//       change in cluster constituency.
//
// The final cgs are the candidate event locations. Reports more than
// r_error from every surviving cg were effectively "thrown out".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/vec2.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::core {

/// One event cluster: its centre of gravity and the indices (into the input
/// report span) of its member reports.
struct EventCluster {
    util::Vec2 cg;
    std::vector<std::size_t> members;  ///< ascending input indices
};

/// Deterministic implementation of the paper's clustering heuristic.
class EventClusterer {
  public:
    /// Default step-5 round bound — far beyond what any realistic input
    /// needs (the differential oracle mirrors this value).
    static constexpr std::size_t kDefaultMaxRounds = 64;

    /// `r_error` is the localization error bound (5 units in Experiment 2).
    /// `max_rounds` bounds the step-5 refinement loop; the heuristic is not
    /// guaranteed to reach a fixpoint in theory, so we stop after this many
    /// rounds.
    explicit EventClusterer(double r_error, std::size_t max_rounds = kDefaultMaxRounds);

    double r_error() const { return r_error_; }
    std::size_t max_rounds() const { return max_rounds_; }

    /// Hitting the round cap used to truncate silently; with a recorder
    /// attached each truncation now increments
    /// core.clusterer.round_cap_hits (lazily registered, mirroring the
    /// exp.sweep.truncated_runs convention) and logs a warning either way.
    /// nullptr detaches.
    void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

    /// Groups `points` into event clusters. Empty input yields no clusters;
    /// a single point yields one singleton cluster. Every input point is a
    /// member of exactly one output cluster.
    ///
    /// Replaces the contents of `out`, keeping the member buffers of the
    /// clusters it reuses. The refinement rounds run in this clusterer's
    /// scratch buffers, so a clusterer that is called again allocates only
    /// when an input outgrows every earlier one.
    void cluster(std::span<const util::Vec2> points, std::vector<EventCluster>& out);

    /// The same clustering into a fresh vector, with fresh scratch: this
    /// clusterer is not modified, so a const clusterer may be shared.
    std::vector<EventCluster> cluster(std::span<const util::Vec2> points) const;

    /// Frees the scratch buffers; the next cluster() call regrows them.
    void release_scratch() { scratch_ = Scratch{}; }

  private:
    /// Buffers of one cluster() call. `cgs`/`sizes`/`assign` hold the
    /// current round; each round writes the `next_*` buffers and swaps.
    struct Scratch {
        std::vector<util::Vec2> seeds, cgs, next_cgs, sums;
        std::vector<std::size_t> sizes, next_sizes, assign, next_assign;
        std::vector<std::size_t> counts, index, parent;
    };

    void run(std::span<const util::Vec2> points, Scratch& s,
             std::vector<EventCluster>& out) const;

    double r_error_;
    std::size_t max_rounds_;
    obs::Recorder* recorder_ = nullptr;
    Scratch scratch_;
};

}  // namespace tibfit::core
