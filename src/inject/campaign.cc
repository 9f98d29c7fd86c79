#include "inject/campaign.h"

#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::inject {

namespace {

std::string msg(const char* what, std::size_t index, const char* detail) {
    return std::string("campaign: ") + what + "[" + std::to_string(index) + "] " + detail;
}

void check_probability(std::vector<std::string>& errors, const char* what, std::size_t index,
                       const char* field, double p) {
    if (p < 0.0 || p > 1.0) {
        errors.push_back(msg(what, index, (std::string(field) + " outside [0, 1]").c_str()));
    }
}

}  // namespace

bool CampaignSpec::degraded_at(double t) const {
    for (const auto& w : degradations) {
        if (t >= w.start && t < w.end) return true;
    }
    return false;
}

std::vector<std::string> CampaignSpec::validate() const {
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < degradations.size(); ++i) {
        const auto& w = degradations[i];
        if (w.end <= w.start) errors.push_back(msg("degradations", i, "window end <= start"));
        check_probability(errors, "degradations", i, "extra_drop", w.extra_drop);
        check_probability(errors, "degradations", i, "duplicate_probability",
                          w.duplicate_probability);
        check_probability(errors, "degradations", i, "reorder_probability",
                          w.reorder_probability);
        if (w.delay_jitter < 0.0) errors.push_back(msg("degradations", i, "negative delay_jitter"));
        if (w.reorder_hold < 0.0) errors.push_back(msg("degradations", i, "negative reorder_hold"));
        if (w.reorder_probability > 0.0 && w.reorder_hold <= 0.0) {
            errors.push_back(msg("degradations", i, "reorder_probability without reorder_hold"));
        }
    }
    for (std::size_t i = 0; i < failovers.size(); ++i) {
        const auto& f = failovers[i];
        if (f.kill_at < 0.0) errors.push_back(msg("failovers", i, "negative kill_at"));
        if (f.recover_at >= 0.0 && f.recover_at <= f.kill_at) {
            errors.push_back(msg("failovers", i, "recover_at <= kill_at"));
        }
    }
    for (std::size_t i = 0; i < compromises.size(); ++i) {
        const auto& c = compromises[i];
        if (c.at < 0.0) errors.push_back(msg("compromises", i, "negative onset time"));
        check_probability(errors, "compromises", i, "target_pct", c.target_pct);
    }
    for (std::size_t i = 0; i < fault_shifts.size(); ++i) {
        const auto& s = fault_shifts[i];
        if (s.at < 0.0) errors.push_back(msg("fault_shifts", i, "negative shift time"));
        if (s.missed_alarm_rate > 1.0) {
            errors.push_back(msg("fault_shifts", i, "missed_alarm_rate > 1"));
        }
        if (s.false_alarm_rate > 1.0) {
            errors.push_back(msg("fault_shifts", i, "false_alarm_rate > 1"));
        }
        if (s.missed_alarm_rate < 0.0 && s.false_alarm_rate < 0.0) {
            errors.push_back(msg("fault_shifts", i, "shifts nothing (both rates negative)"));
        }
    }
    return errors;
}

void Campaign::arm_channel(net::Channel& channel) const {
    if (spec_.degradations.empty()) return;
    channel.set_fault_schedule(spec_.degradations, rng_.stream("inject.channel"));
}

void Campaign::note_fired() const {
    // Campaigns only exist in injection runs, so registering the counter at
    // fire time cannot disturb injection-free artifact shapes.
    if (recorder_) recorder_->metrics().counter(obs::metric::kInjectFaultEvents).inc();
}

void Campaign::schedule() {
    if (compromise_fn_) {
        for (const auto& c : spec_.compromises) {
            sim_->schedule_at(c.at, [this, c] {
                note_fired();
                compromise_fn_(c);
            });
        }
    }
    if (fault_shift_fn_) {
        for (const auto& s : spec_.fault_shifts) {
            sim_->schedule_at(s.at, [this, s] {
                note_fired();
                fault_shift_fn_(s);
            });
        }
    }
    if (failover_fn_) {
        for (const auto& f : spec_.failovers) {
            sim_->schedule_at(f.kill_at, [this, f] {
                note_fired();
                failover_fn_(f, /*recovering=*/false);
            });
            if (f.recover_at >= 0.0) {
                sim_->schedule_at(f.recover_at, [this, f] {
                    note_fired();
                    failover_fn_(f, /*recovering=*/true);
                });
            }
        }
    }
}

}  // namespace tibfit::inject
