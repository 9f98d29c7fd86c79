#include "exp/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/json.h"

namespace tibfit::exp {

namespace {

// The JSON spellings of the enum fields.
constexpr std::pair<Scenario::Kind, std::string_view> kKinds[] = {
    {Scenario::Kind::Binary, "binary"}, {Scenario::Kind::Location, "location"}};
constexpr std::pair<core::DecisionPolicy, std::string_view> kPolicies[] = {
    {core::DecisionPolicy::TrustIndex, "trust_index"},
    {core::DecisionPolicy::MajorityVote, "majority_vote"}};
constexpr std::pair<sensor::NodeClass, std::string_view> kFaultLevels[] = {
    {sensor::NodeClass::Correct, "correct"},
    {sensor::NodeClass::Level0, "level0"},
    {sensor::NodeClass::Level1, "level1"},
    {sensor::NodeClass::Level2, "level2"}};
constexpr std::pair<Clustering, std::string_view> kClusterings[] = {
    {Clustering::Static, "static"}, {Clustering::Leach, "leach"}};
const std::pair<check::Mode, std::string_view> kCheckModes[] = {
    {check::Mode::Off, check::mode_name(check::Mode::Off)},
    {check::Mode::Shadow, check::mode_name(check::Mode::Shadow)},
    {check::Mode::Assert, check::mode_name(check::Mode::Assert)}};

auto names(Scenario::Kind) { return std::span(kKinds); }
auto names(core::DecisionPolicy) { return std::span(kPolicies); }
auto names(sensor::NodeClass) { return std::span(kFaultLevels); }
auto names(Clustering) { return std::span(kClusterings); }
auto names(check::Mode) { return std::span(kCheckModes); }

template <class E>
std::string_view name_of(E e) {
    for (const auto& [value, name] : names(e)) {
        if (value == e) return name;
    }
    return {};
}

template <class E>
bool parse_name(std::string_view text, E& out) {
    for (const auto& [value, name] : names(out)) {
        if (name == text) {
            out = value;
            return true;
        }
    }
    return false;
}

// ---- The field list ----

/// Scenario's serialized fields in JSON write order: `f(path, field)` once
/// per field, the path dotted by JSON object nesting. `kind` (which picks
/// the defaults) and `campaign` (which has its own JSON codec) are listed
/// as themselves; every consumer treats those two specially.
template <class S, class F>
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

// ---- Field kinds ----

template <class T>
constexpr bool kIsCount = std::is_integral_v<T> && !std::is_same_v<T, bool>;

/// kind and campaign: listed, but not settable by key=value.
template <class T>
constexpr bool kIsSpecial =
    std::is_same_v<T, Scenario::Kind> || std::is_same_v<T, inject::CampaignSpec>;

template <class T>
using Field = std::remove_cvref_t<T>;

/// An integer field's largest value: its type's maximum, capped at 2^53
/// (the largest integer a JSON number carries exactly) so that every
/// value key=value can set also round-trips through JSON.
template <class T>
constexpr std::uint64_t kCountMax =
    std::min<std::uint64_t>(std::numeric_limits<T>::max(), std::uint64_t{1} << 53);

template <class T>
std::string expects(const T& field) {
    if constexpr (std::is_same_v<T, double>) {
        return "a finite number";
    } else if constexpr (std::is_same_v<T, bool>) {
        return "true or false";
    } else if constexpr (kIsCount<T>) {
        return "an integer in [0, " + std::to_string(kCountMax<T>) + "]";
    } else {
        std::string out;
        for (const auto& [value, name] : names(field)) {
            out += out.empty() ? "one of " : "|";
            out += name;
        }
        return out;
    }
}

/// Whole-string text parse in the field's type; false leaves `out` as is.
template <class T>
bool parse_text(std::string_view text, T& out) {
    const char* end = text.data() + text.size();
    if constexpr (std::is_same_v<T, double>) {
        double v = 0.0;
        const auto [p, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc{} || p != end || !std::isfinite(v)) return false;
        out = v;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (text != "true" && text != "false") return false;
        out = text == "true";
    } else if constexpr (kIsCount<T>) {
        std::uint64_t v = 0;  // unsigned: from_chars rejects a sign
        const auto [p, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc{} || p != end || v > kCountMax<T>) return false;
        out = static_cast<T>(v);
    } else {
        return parse_name(text, out);
    }
    return true;
}

/// A JSON scalar as parse_text() input, so both inputs share one set of
/// rules: numbers in exact fixed notation (integer fields see whole
/// digits), strings only for enum fields; other values yield text no
/// field type accepts.
std::string json_text(const obs::json::Value& v, bool enum_field) {
    if (v.is_string()) return enum_field ? v.as_string() : "";
    if (v.is_bool()) return v.as_bool() ? "true" : "false";
    if (!v.is_number()) return "";
    char buf[400];  // any double in fixed notation: at most 327 chars
    return {buf, std::to_chars(buf, buf + sizeof buf, v.as_number(), std::chars_format::fixed).ptr};
}

/// Text form of a field value, as parse_text() accepts it.
template <class T>
std::string render(const T& field) {
    if constexpr (std::is_same_v<T, double>) {
        return obs::json::number_to_string(field);
    } else if constexpr (std::is_same_v<T, bool>) {
        return field ? "true" : "false";
    } else if constexpr (kIsCount<T>) {
        return std::to_string(field);
    } else {
        return std::string(name_of(field));
    }
}

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

void write_json(const Scenario& s, obs::json::Writer& w) {
    std::string_view open;  // path prefix of the open objects, e.g. "engine.trust."
    const auto close = [&] {
        w.end_object();
        open = open.substr(0, open.rfind('.', open.size() - 2) + 1);  // npos + 1 == 0
    };
    w.begin_object();
    for_each_field(s, [&](std::string_view path, const auto& field) {
        // The list keeps each object's fields together: close objects until
        // `open` prefixes the path, then open the ones the path adds.
        while (!path.starts_with(open)) close();
        for (auto dot = path.find('.', open.size()); dot != path.npos;
             dot = path.find('.', open.size())) {
            w.key(path.substr(open.size(), dot - open.size()));
            w.begin_object();
            open = path.substr(0, dot + 1);
        }
        path.remove_prefix(open.size());
        using T = Field<decltype(field)>;
        if constexpr (std::is_same_v<T, inject::CampaignSpec>) {
            w.key(path);
            inject::write_json(field, w);
        } else if constexpr (kIsCount<T>) {
            w.field(path, static_cast<std::uint64_t>(field));
        } else if constexpr (std::is_same_v<T, double> || std::is_same_v<T, bool>) {
            w.field(path, field);
        } else {
            w.field(path, name_of(field));
        }
    });
    while (!open.empty()) close();
    w.end_object();
}

Scenario scenario_from_json(const obs::json::Value& v) {
    if (!v.is_object()) throw std::runtime_error("scenario: JSON root must be an object");
    auto kind = Scenario::Kind::Binary;
    if (const auto* k = v.find("kind"); k && !parse_text(json_text(*k, true), kind)) {
        throw std::runtime_error("scenario: kind expects " + expects(kind));
    }
    Scenario s = kind == Scenario::Kind::Binary ? Scenario::binary_defaults()
                                                : Scenario::location_defaults();
    for_each_field(s, [&](std::string_view path, auto& field) {
        const obs::json::Value* j = &v;
        for (std::size_t from = 0, dot = 0; j && dot != path.npos; from = dot + 1) {
            dot = path.find('.', from);
            j = j->find(std::string(path.substr(from, dot - from)));
        }
        if (!j) return;
        if constexpr (std::is_same_v<Field<decltype(field)>, inject::CampaignSpec>) {
            field = inject::campaign_from_json(*j);
        } else if (!parse_text(json_text(*j, std::is_enum_v<Field<decltype(field)>>), field)) {
            throw std::runtime_error("scenario: " + std::string(path) + " expects " +
                                     expects(field));
        }
    });
    return s;
}

std::string to_json(const Scenario& scenario) {
    std::ostringstream os;
    obs::json::Writer w(os, /*indent=*/2);
    write_json(scenario, w);
    return os.str();
}

Scenario scenario_from_json_text(const std::string& text) {
    return scenario_from_json(obs::json::parse(text));
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
            if (kind_reads(s.kind, path)) out.push_back(std::string(path) + "=" + render(field));
        }
    });
    return out;
}

template <class T>
bool parse_value(std::string_view text, T& out) {
    return parse_text(text, out);
}
template bool parse_value(std::string_view, bool&);
template bool parse_value(std::string_view, double&);
template bool parse_value(std::string_view, long&);
template bool parse_value(std::string_view, std::size_t&);

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
