// check::ShadowArbiter — the differential oracle's lockstep driver.
//
// Attach one to a core::DecisionEngine (engine.set_checker(&shadow)) and
// it consumes the exact report stream the engine consumes, re-derives
// every decision through the paper-literal reference implementation
// (check/reference.h), and cross-checks, with tolerance 0:
//
//   * every binary/location decision — verdict, CTI weights bit-for-bit,
//     reporter / silent / thrown-out partitions (and through them the
//     cluster constituencies and cg estimates);
//   * the full trust table after every decision, quarantine and adoption
//     — raw v accumulators, memoised TI values, isolation verdicts;
//   * trust checkpoint/restore round-trip losslessness at every adoption.
//
// Divergences are counted (and capped details kept in divergence_log());
// with abort_on_divergence the first one throws std::logic_error instead
// — exp::Scenario maps check.mode shadow/assert onto these. exp::World
// publishes the tallies in a recorded run's metrics, for CI to gate on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/reference.h"
#include "core/check_hooks.h"
#include "core/decision_engine.h"

namespace tibfit::check {

class ShadowArbiter final : public core::DecisionChecker {
  public:
    /// `cfg` must be the shadowed engine's config (the reference needs the
    /// same policy / radii / trust parameters / extension flags).
    explicit ShadowArbiter(const core::EngineConfig& cfg, bool abort_on_divergence = false);

    std::size_t decisions_checked() const { return checked_; }
    std::size_t divergences() const { return divergences_; }
    /// First kMaxLoggedDivergences divergence descriptions.
    const std::vector<std::string>& divergence_log() const { return log_; }

    static constexpr std::size_t kMaxLoggedDivergences = 20;

    // core::DecisionChecker
    void on_binary_decision(std::span<const core::NodeId> event_neighbours,
                            std::span<const core::NodeId> reporters, bool apply_trust_updates,
                            const core::BinaryDecision& decision,
                            const core::TrustManager& trust) override;
    void on_location_decisions(std::span<const core::EventReport> reports,
                               std::span<const util::Vec2> node_positions,
                               bool apply_trust_updates,
                               const std::vector<core::LocationDecision>& decisions,
                               const core::TrustManager& trust) override;
    void on_quarantines(std::span<const core::NodeId> nodes,
                        const core::TrustManager& trust) override;
    void on_trust_adopted(const core::TrustManager& trust) override;

  private:
    void diverge(const std::string& what);
    void compare_trust(const core::TrustManager& trust, const char* context);
    void compare_decision(const core::LocationDecision& got, const core::LocationDecision& want,
                          std::size_t index);

    core::EngineConfig cfg_;
    RefTrustTable ref_;
    bool abort_;
    std::size_t checked_ = 0;
    std::size_t divergences_ = 0;
    std::vector<std::string> log_;
};

}  // namespace tibfit::check
