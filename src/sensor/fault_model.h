// The paper's node behaviour classes (Sections 1, 2.1):
//
//   correct  — errs only at its natural error rate (NER);
//   level 0  — naïve faulty: random missed alarms, false alarms and
//              location faults with no pattern;
//   level 1  — smart independent: same faults, but watches its own trust
//              index and behaves correctly whenever the TI drops to the
//              lower threshold, resuming faults at the upper threshold;
//   level 2  — smart colluding: level-1 faults coordinated over an
//              undetectable side channel so all colluders report the same
//              fabricated location or all stay silent.
//
// A behaviour is a pure strategy: given what the node senses (and, for
// smart nodes, the node's own tracked TI), decide what to put on the air.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::sensor {

/// Paper's taxonomy of node behaviour.
enum class NodeClass { Correct, Level0, Level1, Level2 };

/// The classes' names, in enum order (scenario JSON, key=value, output).
inline constexpr std::pair<NodeClass, std::string_view> kNodeClassNames[] = {
    {NodeClass::Correct, "correct"},
    {NodeClass::Level0, "level0"},
    {NodeClass::Level1, "level1"},
    {NodeClass::Level2, "level2"}};
inline auto names(NodeClass) { return std::span(kNodeClassNames); }

inline const char* to_string(NodeClass c) {
    return kNodeClassNames[static_cast<int>(c)].second.data();
}

/// All behaviour tunables (Table 1 / Table 2 parameters).
struct FaultParams {
    // Correct behaviour.
    double natural_error_rate = 0.01;  ///< NER: P(miss a real event)
    double correct_sigma = 1.6;        ///< location noise of a correct node

    // Faulty behaviour (levels 0-2).
    double missed_alarm_rate = 0.5;  ///< binary model: P(drop a real event)
    double false_alarm_rate = 0.0;   ///< P(fabricate a report in a quiet window)
    double faulty_sigma = 4.25;      ///< location noise of a faulty node
    double faulty_drop_rate = 0.25;  ///< location model: P(drop a real event)

    // Smart behaviour (levels 1-2): TI hysteresis (Section 4.2).
    double lower_ti = 0.5;  ///< stop lying when tracked TI falls to here
    double upper_ti = 0.8;  ///< resume lying when tracked TI recovers to here

    /// Adaptive level-2 variant (Section 7: "different levels of collusion
    /// and decision sharing"): each colluder perturbs the group's shared
    /// fabricated location by an independent N(0, collusion_jitter) draw,
    /// trading some attack coherence for invisibility to identical-report
    /// collusion detectors. 0 = the paper's exact-echo level 2.
    double collusion_jitter = 0.0;
};

/// What the node senses, plus the self-knowledge smart nodes exploit.
struct SenseContext {
    std::uint64_t event_id = 0;      ///< generator sequence number (or quiet-window id)
    util::Vec2 true_location;        ///< ground-truth event position
    util::Vec2 node_position;        ///< the sensing node's own position
    double sensing_radius = 20.0;    ///< the node's r_s
    double tracked_ti = 1.0;         ///< node's mirror of its CH-side TI
};

/// What the node decides to transmit.
struct SenseAction {
    bool report = false;                        ///< send anything at all?
    bool positive = true;                       ///< binary claim
    std::optional<util::Vec2> location;         ///< claimed absolute location
};

/// Strategy interface. Implementations may keep state (hysteresis).
class FaultBehavior {
  public:
    virtual ~FaultBehavior() = default;

    /// A real event occurred within the node's sensing radius.
    virtual SenseAction on_event(const SenseContext& ctx, util::Rng& rng) = 0;

    /// A quiet window: no event near the node. May fabricate a false alarm.
    virtual SenseAction on_quiet(const SenseContext& ctx, util::Rng& rng) = 0;

    virtual NodeClass node_class() const = 0;
};

/// Correct node: misses a real event with probability NER, otherwise
/// reports the true location perturbed by N(0, correct_sigma) per axis.
/// Never fabricates reports.
class CorrectBehavior : public FaultBehavior {
  public:
    explicit CorrectBehavior(FaultParams params) : params_(params) {}
    SenseAction on_event(const SenseContext& ctx, util::Rng& rng) override;
    SenseAction on_quiet(const SenseContext& ctx, util::Rng& rng) override;
    NodeClass node_class() const override { return NodeClass::Correct; }

  private:
    FaultParams params_;
};

/// Level 0: independently drops real events (missed_alarm_rate in the
/// binary model, faulty_drop_rate in the location model), reports with the
/// faulty noise sigma, and fabricates false alarms at false_alarm_rate.
class Level0Fault : public FaultBehavior {
  public:
    /// `binary_mode` selects which drop knob applies to real events.
    Level0Fault(FaultParams params, bool binary_mode)
        : params_(params), binary_mode_(binary_mode) {}
    SenseAction on_event(const SenseContext& ctx, util::Rng& rng) override;
    SenseAction on_quiet(const SenseContext& ctx, util::Rng& rng) override;
    NodeClass node_class() const override { return NodeClass::Level0; }

  private:
    FaultParams params_;
    bool binary_mode_;
};

/// Level 1: a Level0Fault wrapped in TI hysteresis. While "rehabilitating"
/// (tracked TI once fell to lower_ti and has not yet recovered to
/// upper_ti) the node behaves exactly like a correct node.
class Level1Fault : public FaultBehavior {
  public:
    Level1Fault(FaultParams params, bool binary_mode);
    SenseAction on_event(const SenseContext& ctx, util::Rng& rng) override;
    SenseAction on_quiet(const SenseContext& ctx, util::Rng& rng) override;
    NodeClass node_class() const override { return NodeClass::Level1; }

    /// Whether the node is currently behaving correctly to launder its TI.
    bool rehabilitating() const { return rehab_; }

  protected:
    /// Updates the hysteresis state from the tracked TI; returns true if
    /// the node should currently act correct.
    bool update_hysteresis(double tracked_ti);

    FaultParams params_;
    CorrectBehavior honest_;
    Level0Fault naive_;
    bool rehab_ = false;
};

}  // namespace tibfit::sensor
