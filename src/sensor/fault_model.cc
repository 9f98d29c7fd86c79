#include "sensor/fault_model.h"

namespace tibfit::sensor {

SenseAction CorrectBehavior::on_event(const SenseContext& ctx, util::Rng& rng) {
    if (rng.chance(params_.natural_error_rate)) return {};  // natural missed alarm
    SenseAction a;
    a.report = true;
    a.positive = true;
    a.location = ctx.true_location + rng.gaussian_offset(params_.correct_sigma);
    return a;
}

SenseAction CorrectBehavior::on_quiet(const SenseContext&, util::Rng&) {
    return {};  // correct nodes never fabricate
}

SenseAction Level0Fault::on_event(const SenseContext& ctx, util::Rng& rng) {
    const double drop = binary_mode_ ? params_.missed_alarm_rate : params_.faulty_drop_rate;
    if (rng.chance(drop)) return {};  // missed alarm
    SenseAction a;
    a.report = true;
    a.positive = true;
    a.location = ctx.true_location + rng.gaussian_offset(params_.faulty_sigma);
    return a;
}

SenseAction Level0Fault::on_quiet(const SenseContext& ctx, util::Rng& rng) {
    if (!rng.chance(params_.false_alarm_rate)) return {};
    SenseAction a;
    a.report = true;
    a.positive = true;
    // A fabricated event somewhere the node could plausibly have sensed it.
    const double r = rng.uniform(0.0, ctx.sensing_radius);
    const double theta = rng.uniform(0.0, 6.283185307179586);
    a.location = ctx.node_position + util::Vec2::from_polar(r, theta);
    return a;
}

Level1Fault::Level1Fault(FaultParams params, bool binary_mode)
    : params_(params), honest_(params), naive_(params, binary_mode) {}

bool Level1Fault::update_hysteresis(double tracked_ti) {
    if (rehab_) {
        if (tracked_ti >= params_.upper_ti) rehab_ = false;
    } else {
        if (tracked_ti <= params_.lower_ti) rehab_ = true;
    }
    return rehab_;
}

SenseAction Level1Fault::on_event(const SenseContext& ctx, util::Rng& rng) {
    if (update_hysteresis(ctx.tracked_ti)) return honest_.on_event(ctx, rng);
    return naive_.on_event(ctx, rng);
}

SenseAction Level1Fault::on_quiet(const SenseContext& ctx, util::Rng& rng) {
    if (update_hysteresis(ctx.tracked_ti)) return honest_.on_quiet(ctx, rng);
    return naive_.on_quiet(ctx, rng);
}

}  // namespace tibfit::sensor
