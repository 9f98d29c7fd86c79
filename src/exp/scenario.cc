#include "exp/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/fields.h"

namespace tibfit::exp {

// The JSON spellings of the enums declared here; the other enum fields
// name their values beside their own types.
constexpr std::pair<Scenario::Kind, std::string_view> kKinds[] = {
    {Scenario::Kind::Binary, "binary"}, {Scenario::Kind::Location, "location"}};
constexpr std::pair<Clustering, std::string_view> kClusterings[] = {
    {Clustering::Static, "static"}, {Clustering::Leach, "leach"}};

auto names(Scenario::Kind) { return std::span(kKinds); }
auto names(Clustering) { return std::span(kClusterings); }

// ---- The field list ----

/// Scenario's serialized fields in JSON write order (obs/fields.h derives
/// the codec): `f(path, field)` once per field, the path dotted by JSON
/// object nesting. `kind` picks the defaults a read starts from, and
/// `campaign` is a field-listed struct; key=value sets neither.
template <obs::fields::Is<Scenario> S, class F>
void for_each_field(S& s, F&& f) {
    f("kind", s.kind);
    f("seed", s.seed);
    f("engine.policy", s.engine.policy);
    f("engine.r_error", s.engine.r_error);
    f("engine.t_out", s.engine.t_out);
    f("engine.trust.lambda", s.engine.trust.lambda);
    f("engine.trust.fault_rate", s.engine.trust.fault_rate);
    f("engine.trust.removal_ti", s.engine.trust.removal_ti);
    f("engine.collusion_defense", s.engine.collusion_defense);
    f("engine.collusion.epsilon", s.engine.collusion.epsilon);
    f("engine.collusion.min_clique", s.engine.collusion.min_clique);
    f("engine.collusion.conviction_count", s.engine.collusion.conviction_count);
    f("engine.trust_weighted_location", s.engine.trust_weighted_location);
    f("channel.drop_probability", s.channel.drop_probability);
    f("channel.base_latency", s.channel.base_latency);
    f("channel.propagation_speed", s.channel.propagation_speed);
    f("channel.airtime", s.channel.airtime);
    f("transport.ack_timeout", s.transport.ack_timeout);
    f("transport.max_retries", s.transport.max_retries);
    f("transport.ttl", s.transport.ttl);
    f("check.mode", s.check.mode);
    f("deployment.field", s.deployment.field);
    f("deployment.sensing_radius", s.deployment.sensing_radius);
    f("faults.natural_error_rate", s.faults.natural_error_rate);
    f("faults.correct_sigma", s.faults.correct_sigma);
    f("faults.missed_alarm_rate", s.faults.missed_alarm_rate);
    f("faults.false_alarm_rate", s.faults.false_alarm_rate);
    f("faults.faulty_sigma", s.faults.faulty_sigma);
    f("faults.faulty_drop_rate", s.faults.faulty_drop_rate);
    f("faults.lower_ti", s.faults.lower_ti);
    f("faults.upper_ti", s.faults.upper_ti);
    f("faults.collusion_jitter", s.faults.collusion_jitter);
    f("mobility.speed_min", s.mobility.speed_min);
    f("mobility.speed_max", s.mobility.speed_max);
    f("mobility.pause", s.mobility.pause);
    f("mobility.tick", s.mobility.tick);
    f("campaign", s.campaign);
    f("binary.n_nodes", s.binary.n_nodes);
    f("binary.pct_faulty", s.binary.pct_faulty);
    f("binary.false_alarm_spread_touts", s.binary.false_alarm_spread_touts);
    f("binary.events", s.binary.events);
    f("binary.event_interval", s.binary.event_interval);
    f("binary.use_shadows", s.binary.use_shadows);
    f("binary.corrupt_ch", s.binary.corrupt_ch);
    f("binary.reliable_reports", s.binary.reliable_reports);
    f("location.n_nodes", s.location.n_nodes);
    f("location.grid_layout", s.location.grid_layout);
    f("location.pct_faulty", s.location.pct_faulty);
    f("location.fault_level", s.location.fault_level);
    f("location.multihop", s.location.multihop);
    f("location.radio_range", s.location.radio_range);
    f("location.mobile", s.location.mobile);
    f("location.n_ch", s.location.n_ch);
    f("location.rotation_period", s.location.rotation_period);
    f("location.events", s.location.events);
    f("location.event_interval", s.location.event_interval);
    f("location.burst", s.location.burst);
    f("location.tx_jitter", s.location.tx_jitter);
    f("location.decay", s.location.decay);
    f("location.decay_initial", s.location.decay_initial);
    f("location.decay_step", s.location.decay_step);
    f("location.decay_final", s.location.decay_final);
    f("location.decay_epoch_events", s.location.decay_epoch_events);
    f("location.epoch_events", s.location.epoch_events);
    f("location.clustering", s.location.clustering);
    f("location.leach.ch_fraction", s.location.leach.ch_fraction);
    f("location.leach.round_duration", s.location.leach.round_duration);
    f("location.leach.initial_energy", s.location.leach.initial_energy);
}

namespace {

using obs::fields::expects;
using obs::fields::name_of;
using obs::fields::parse_text;

template <class T>
using Field = std::remove_cvref_t<T>;

/// kind and campaign: listed, but not settable by key=value.
template <class T>
constexpr bool kIsSpecial = std::is_same_v<T, Scenario::Kind> || obs::fields::Listed<T>;

/// Whether the scenario's kind reads the field at `path`.
bool kind_reads(Scenario::Kind kind, std::string_view path) {
    return !path.starts_with(kind == Scenario::Kind::Binary ? "location." : "binary.");
}

void check_unit(std::vector<std::string>& errors, const char* what, double p) {
    if (p < 0.0 || p > 1.0) {
        errors.push_back(std::string("scenario: ") + what + " outside [0, 1]");
    }
}

}  // namespace

Scenario Scenario::binary_defaults() {
    Scenario s;
    s.kind = Kind::Binary;
    s.engine.trust.lambda = 0.1;       // Table 1
    s.engine.trust.fault_rate = -1.0;  // "f_r equals the NER" sentinel
    s.engine.trust.removal_ti = 0.0;   // isolation off in Experiment 1
    s.deployment.field = 40.0;
    return s;
}

Scenario Scenario::location_defaults() {
    Scenario s;
    s.kind = Kind::Location;
    // TrustParams defaults are already Table 2 (lambda 0.25, f_r 0.1,
    // removal 0.05); location-model misses come from sigma + channel, not
    // a binary NER.
    s.faults.natural_error_rate = 0.0;
    s.mobility.tick = 1.0;
    return s;
}

core::TrustParams Scenario::effective_trust() const {
    core::TrustParams t = engine.trust;
    if (kind == Kind::Binary && t.fault_rate < 0.0) t.fault_rate = faults.natural_error_rate;
    return t;
}

std::vector<std::string> Scenario::validate() const {
    std::vector<std::string> errors;

    // Protocol / trust. Range checks live on TrustParams itself so direct
    // core users get the same rejection table (removal_ti in [0, 1), ...).
    for (const std::string& e : engine.trust.validate()) errors.push_back("scenario: " + e);
    if (kind == Kind::Location && engine.trust.fault_rate < 0.0) {
        errors.push_back("scenario: location runs need an explicit trust fault_rate >= 0");
    }
    if (engine.t_out <= 0.0) errors.push_back("scenario: t_out must be > 0");
    if (engine.r_error <= 0.0) errors.push_back("scenario: r_error must be > 0");
    if (engine.r_error > deployment.field) {
        errors.push_back("scenario: r_error exceeds the deployment extent");
    }
    if (deployment.field <= 0.0) errors.push_back("scenario: deployment field must be > 0");
    if (deployment.sensing_radius <= 0.0) {
        errors.push_back("scenario: sensing_radius must be > 0");
    }

    // Channel / transport.
    check_unit(errors, "channel drop_probability", channel.drop_probability);
    if (channel.base_latency < 0.0) errors.push_back("scenario: negative channel base_latency");
    if (channel.propagation_speed <= 0.0) {
        errors.push_back("scenario: channel propagation_speed must be > 0");
    }
    if (channel.airtime < 0.0) errors.push_back("scenario: negative channel airtime");
    if (transport.max_retries > 0 && transport.ack_timeout <= 0.0) {
        errors.push_back("scenario: transport retry budget with zero ack_timeout");
    }
    if (transport.ttl == 0) errors.push_back("scenario: transport ttl must be >= 1");

    // Fault behaviours.
    check_unit(errors, "natural_error_rate", faults.natural_error_rate);
    check_unit(errors, "missed_alarm_rate", faults.missed_alarm_rate);
    check_unit(errors, "false_alarm_rate", faults.false_alarm_rate);
    check_unit(errors, "faulty_drop_rate", faults.faulty_drop_rate);
    if (faults.correct_sigma < 0.0 || faults.faulty_sigma < 0.0) {
        errors.push_back("scenario: negative report sigma");
    }

    // Mobility.
    if (mobility.speed_min < 0.0) errors.push_back("scenario: negative mobility speed_min");
    if (mobility.speed_min > mobility.speed_max) {
        errors.push_back("scenario: mobility speed_min > speed_max");
    }

    // Workload shape.
    if (kind == Kind::Binary) {
        if (binary.n_nodes == 0) errors.push_back("scenario: binary n_nodes must be >= 1");
        if (binary.events == 0) errors.push_back("scenario: binary events must be >= 1");
        if (binary.event_interval <= 0.0) {
            errors.push_back("scenario: binary event_interval must be > 0");
        }
        check_unit(errors, "binary pct_faulty", binary.pct_faulty);
        if (binary.false_alarm_spread_touts < 0.0) {
            errors.push_back("scenario: negative false_alarm_spread_touts");
        }
        if (!campaign.failovers.empty() && binary.use_shadows) {
            errors.push_back(
                "scenario: CH failover and shadow CHs are mutually exclusive (shadows "
                "monitor the fixed CH identity)");
        }
    } else {
        if (location.n_nodes == 0) errors.push_back("scenario: location n_nodes must be >= 1");
        if (location.events == 0) errors.push_back("scenario: location events must be >= 1");
        if (location.event_interval <= 0.0) {
            errors.push_back("scenario: location event_interval must be > 0");
        }
        check_unit(errors, "location pct_faulty", location.pct_faulty);
        if (location.n_ch == 0) errors.push_back("scenario: location n_ch must be >= 1");
        if (location.burst == 0) errors.push_back("scenario: location burst must be >= 1");
        if (location.multihop && location.radio_range <= 0.0) {
            errors.push_back("scenario: multihop radio_range must be > 0");
        }
        if (location.mobile && mobility.tick <= 0.0) {
            errors.push_back("scenario: mobile runs need mobility tick > 0");
        }
        if (location.decay) {
            if (location.decay_step <= 0.0) errors.push_back("scenario: decay_step must be > 0");
            if (location.decay_final < location.decay_initial) {
                errors.push_back("scenario: decay_final < decay_initial");
            }
            if (location.decay_epoch_events == 0) {
                errors.push_back("scenario: decay_epoch_events must be >= 1");
            }
        }
        if (location.clustering == Clustering::Leach) {
            const LeachSettings& leach = location.leach;
            if (!(leach.ch_fraction > 0.0) || leach.ch_fraction > 1.0) {
                errors.push_back("scenario: leach ch_fraction outside (0, 1]");
            }
            if (leach.round_duration <= 0.0) {
                errors.push_back("scenario: leach round_duration must be > 0");
            }
            if (leach.initial_energy <= 0.0) {
                errors.push_back("scenario: leach initial_energy must be > 0");
            }
            // Relay routes and the mobility refresh address dedicated CH ids.
            if (location.multihop) errors.push_back("scenario: leach clustering with multihop");
            if (location.mobile) errors.push_back("scenario: leach clustering with mobile");
        }
        if (!campaign.failovers.empty()) {
            errors.push_back(
                "scenario: CH failover campaigns are binary-kind only (location runs "
                "already rotate leadership; use rotation_period)");
        }
    }

    for (auto& e : campaign.validate()) errors.push_back(std::move(e));
    return errors;
}

std::string to_json(const Scenario& scenario) {
    std::ostringstream os;
    obs::json::Writer w(os, /*indent=*/2);
    obs::fields::write_value(w, scenario);
    return os.str();
}

Scenario scenario_from_json_text(const std::string& text) {
    const obs::json::Value v = obs::json::parse(text);
    if (!v.is_object()) throw std::runtime_error("scenario: JSON root must be an object");
    // The kind picks the defaults the document's keys override, so a
    // first pass learns it (and rejects any bad value on the way).
    Scenario first;
    obs::fields::read_members(v, first, "scenario: ");
    Scenario s = first.kind == Scenario::Kind::Binary ? Scenario::binary_defaults()
                                                      : Scenario::location_defaults();
    obs::fields::read_members(v, s, "scenario: ");
    return s;
}

std::string_view apply_override(Scenario& s, std::string_view key, std::string_view value) {
    // Leaves are unique within each kind's sections (scenario_test checks
    // the list), so at most one field matches.
    const bool dotted = key.find('.') != std::string_view::npos;
    std::string_view target;
    for_each_field(s, [&](std::string_view path, auto& field) {
        const std::string_view leaf = path.substr(path.rfind('.') + 1);  // npos + 1 == 0
        if (dotted ? path != key : leaf != key || !kind_reads(s.kind, path)) return;
        target = path;
        if constexpr (kIsSpecial<Field<decltype(field)>>) {
            throw std::invalid_argument("scenario: '" + std::string(path) +
                                        "' cannot be set by key=value");
        } else if (!parse_text(value, field)) {
            throw std::invalid_argument("scenario: " + std::string(path) + " expects " +
                                        expects(field) + ", got '" + std::string(value) + "'");
        }
    });
    if (target.empty()) {
        throw std::invalid_argument("scenario: unknown key '" + std::string(key) + "' for a " +
                                    std::string(name_of(s.kind)) + " scenario");
    }
    return target;
}

std::vector<std::string> override_tokens(const Scenario& s) {
    std::vector<std::string> out;
    for_each_field(s, [&](std::string_view path, const auto& field) {
        if constexpr (!kIsSpecial<Field<decltype(field)>>) {
            if (kind_reads(s.kind, path)) {
                out.push_back(std::string(path) + "=" + obs::fields::render(field));
            }
        }
    });
    return out;
}

void apply_knob(std::span<const Knob> knobs, std::string_view token) {
    const auto eq = token.find('=');
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = eq == token.npos ? "" : token.substr(eq + 1);
    const auto knob =
        std::find_if(knobs.begin(), knobs.end(), [&](const Knob& k) { return k.key == key; });
    if (knob == knobs.end()) {
        std::string keys;
        for (const Knob& k : knobs) (keys += keys.empty() ? "" : "|") += k.key;
        throw std::invalid_argument("unknown key '" + std::string(key) + "' (keys: " + keys + ")");
    }
    std::visit(
        [&](auto* target) {
            if constexpr (std::is_same_v<decltype(target), Scenario*>) {
                apply_override(*target, key, value);
            } else if (!parse_text(value, *target)) {
                throw std::invalid_argument(std::string(key) + " expects " + expects(*target) +
                                            ", got '" + std::string(value) + "'");
            }
        },
        knob->target);
}

void apply_knobs(int argc, char** argv, std::initializer_list<Knob> knobs) {
    std::string_view prog = argc > 0 ? argv[0] : "";
    prog.remove_prefix(prog.rfind('/') + 1);  // npos + 1 == 0
    const int width = static_cast<int>(prog.size());
    for (int i = 1; i < argc; ++i) {
        try {
            apply_knob({knobs.begin(), knobs.end()}, argv[i]);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%.*s: '%s': %s\n", width, prog.data(), argv[i], e.what());
            std::exit(2);
        }
    }
    for (const Knob& knob : knobs) {
        if (Scenario* const* s = std::get_if<Scenario*>(&knob.target)) require_valid(prog, {*s, 1});
    }
}

void require_valid(std::string_view prog, std::span<const Scenario> scenarios) {
    prog.remove_prefix(prog.rfind('/') + 1);  // npos + 1 == 0
    const int width = static_cast<int>(prog.size());
    for (const Scenario& s : scenarios) {
        const std::vector<std::string> errors = s.validate();
        for (const std::string& e : errors) {
            std::fprintf(stderr, "%.*s: %s\n", width, prog.data(), e.c_str());
        }
        if (!errors.empty()) std::exit(2);
    }
}

}  // namespace tibfit::exp
