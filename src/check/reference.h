// The differential oracle's reference implementation: a deliberately
// naive, paper-literal re-derivation of TIBFIT's trust maintenance
// (Section 3: TI = exp(-lambda*v), penalty +(1-f_r), reward -f_r floored
// at 0), binary arbitration (Section 3.1 CTI vote), and the location
// pipeline (Sections 3.2-3.3: K-means-style clustering + per-cluster CTI
// vote).
//
// "Naive" means the data structures favour transparency — linear
// membership scans, sweep-to-fixpoint component merging, a trust table
// that keeps nothing but v per node and derives TI from it — NOT that the
// arithmetic may drift: the oracle compares with tolerance 0, so every
// floating-point operation here is sequenced exactly as the optimised
// stack sequences it (accumulation order, tie-breaking, per-cluster
// update ordering). Any reordering is a bug in the reference, and the
// lockstep tests would flag it immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/binary_arbiter.h"
#include "core/event_clusterer.h"
#include "core/location_arbiter.h"
#include "core/report.h"
#include "core/trust.h"

namespace tibfit::check {

/// Paper-literal trust table: one raw v accumulator per node, indexed by
/// node id (ids are small, contiguous member ids). TI is exp(-lambda*v).
///
/// ti() caches that value per node together with the exact bits of the v
/// it was computed from, and recomputes whenever v's bits differ, so a
/// cache hit returns the same std::exp of the same operands: bit-identical
/// to recomputing by construction. lambda changes only in reset_from,
/// which drops every entry. The table shares no code with
/// core::TrustManager's memo, which is refreshed on mutation instead.
class RefTrustTable {
  public:
    explicit RefTrustTable(core::TrustParams params = {}) : params_(params) {}

    const core::TrustParams& params() const { return params_; }

    double v(core::NodeId node) const;
    /// TI in (0, 1]; 1.0 for a node with no recorded history.
    double ti(core::NodeId node) const;
    bool is_isolated(core::NodeId node) const;

    /// The mutators throw std::invalid_argument on core::kNoNode (as
    /// core::TrustManager does) and leave the table unchanged.
    void judge_correct(core::NodeId node);
    void judge_faulty(core::NodeId node);
    /// Mirrors core::TrustManager::quarantine (including its removal_ti
    /// clamp).
    void quarantine(core::NodeId node);

    /// Replaces the whole table from another manager's state (wire-format
    /// export + params) — trust adoption at a CH rotation or failover.
    void reset_from(const core::TrustManager& trust);

    /// (node, v) pairs ascending — same wire order as TrustManager.
    std::vector<std::pair<core::NodeId, double>> export_v() const;

  private:
    struct Entry {
        double v = 0.0;
        bool seen = false;  ///< the node has recorded history
        mutable bool cached = false;
        mutable std::uint64_t ti_of = 0;  ///< bits of the v `ti` was computed from
        mutable double ti = 1.0;
    };

    /// The node's entry, created (and marked seen) on first use.
    Entry& record(core::NodeId node);

    core::TrustParams params_;
    std::vector<Entry> entries_;  ///< indexed by node id
};

/// Re-derives one binary-window decision (Section 3.1) from first
/// principles, applying the same trust judgements the optimised arbiter
/// would (TrustIndex policy + apply_trust_updates only).
core::BinaryDecision ref_binary_decide(RefTrustTable& trust, core::DecisionPolicy policy,
                                       std::span<const core::NodeId> event_neighbours,
                                       std::span<const core::NodeId> reporters,
                                       bool apply_trust_updates);

/// Re-derives the paper's Section 3.2 clustering heuristic with naive
/// scans (sweep-to-fixpoint transitive closure instead of union-find).
std::vector<core::EventCluster> ref_cluster(std::span<const util::Vec2> points, double r_error,
                                            std::size_t max_rounds);

/// Re-derives one report group's location decisions (Sections 3.2-3.3).
/// `weighted_location` mirrors the engine's trust_weighted_location
/// extension flag.
std::vector<core::LocationDecision> ref_location_decide(
    RefTrustTable& trust, core::DecisionPolicy policy, double sensing_radius, double r_error,
    std::size_t max_rounds, bool weighted_location, std::span<const core::EventReport> reports,
    std::span<const util::Vec2> node_positions, bool apply_trust_updates);

}  // namespace tibfit::check
