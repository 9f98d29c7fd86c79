// The field-list JSON codec: every serialized struct of the program
// (exp::Scenario, inject::CampaignSpec and its elements, the obs trace
// records) declares its members once, as
//
//   template <obs::fields::Is<T> S, class F>
//   void for_each_field(S& s, F&& f) { f("a", s.a); f("b.c", s.b.c); ... }
//
// beside the type (found by argument-dependent lookup), and this header
// derives the JSON writer, the strict reader and the text form of each
// value from that list. Enums name their values through `names(E)`, also
// found by argument-dependent lookup: a span of (value, name) pairs.
//
// Reading rules, shared by every type: missing keys keep the value the
// struct already holds and unknown keys are ignored; a wrong-typed,
// fractional, negative, non-finite or out-of-range value, a non-array
// family or a non-object element throws std::runtime_error naming the
// field's dotted path. See docs/OBSERVABILITY.md.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.h"

namespace tibfit::obs::fields {

/// `S` is `T` or `const T`: the parameter of a field list, which serves
/// both the writer (const) and the reader.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/// A struct with a field list (serialized as a JSON object).
template <class T>
concept Listed = requires(T& t) { for_each_field(t, [](std::string_view, auto&) {}); };

/// A family of field-listed structs (serialized as an array of objects).
template <class T>
concept ListVector = std::same_as<T, std::vector<typename T::value_type>> &&
                     Listed<typename T::value_type>;

template <class T>
constexpr bool kIsCount = std::is_integral_v<T> && !std::is_same_v<T, bool>;

/// An integer field's largest value: its type's maximum, capped at 2^53
/// (the largest integer a JSON number carries exactly) so that every
/// value the text form can set also round-trips through JSON.
template <class T>
constexpr std::uint64_t kCountMax =
    std::min<std::uint64_t>(std::numeric_limits<T>::max(), std::uint64_t{1} << 53);

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

/// What a value of the field's type looks like, for error messages.
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
inline std::string json_text(const json::Value& v, bool enum_field) {
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
        return json::number_to_string(field);
    } else if constexpr (std::is_same_v<T, bool>) {
        return field ? "true" : "false";
    } else if constexpr (kIsCount<T>) {
        return std::to_string(field);
    } else {
        return std::string(name_of(field));
    }
}

template <Listed S>
void write_members(json::Writer& w, const S& s);

/// Writes one field value: a struct as an object, a family as an array.
template <class T>
void write_value(json::Writer& w, const T& field) {
    if constexpr (Listed<T>) {
        w.begin_object();
        write_members(w, field);
        w.end_object();
    } else if constexpr (ListVector<T>) {
        w.begin_array();
        for (const auto& element : field) write_value(w, element);
        w.end_array();
    } else if constexpr (kIsCount<T>) {
        w.value(static_cast<std::uint64_t>(field));
    } else if constexpr (std::is_same_v<T, double> || std::is_same_v<T, bool>) {
        w.value(field);
    } else {
        w.value(name_of(field));
    }
}

/// Writes the listed fields as members of the open object, each dotted
/// path as nested objects.
template <Listed S>
void write_members(json::Writer& w, const S& s) {
    std::string_view open;  // path prefix of the open objects, e.g. "engine.trust."
    const auto close = [&] {
        w.end_object();
        open = open.substr(0, open.rfind('.', open.size() - 2) + 1);  // npos + 1 == 0
    };
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
        w.key(path.substr(open.size()));
        write_value(w, field);
    });
    while (!open.empty()) close();
}

template <Listed S>
void read_members(const json::Value& v, S& s, const std::string& prefix);

[[noreturn]] inline void reject(const std::string& prefix, std::string_view name,
                                const std::string& what) {
    throw std::runtime_error(prefix + std::string(name) + " expects " + what);
}

/// Reads `j` into `field`; errors read "<prefix><name> expects <what>".
template <class T>
void read_value(const json::Value& j, T& field, const std::string& prefix, std::string_view name) {
    if constexpr (Listed<T>) {
        if (!j.is_object()) reject(prefix, name, "an object");
        read_members(j, field, prefix + std::string(name) + ".");
    } else if constexpr (ListVector<T>) {
        if (!j.is_array()) reject(prefix, name, "an array of objects");
        const json::Array& elements = j.as_array();
        field.assign(elements.size(), {});
        for (std::size_t i = 0; i < elements.size(); ++i) {
            read_value(elements[i], field[i], prefix,
                       std::string(name) + "[" + std::to_string(i) + "]");
        }
    } else if (!parse_text(json_text(j, std::is_enum_v<T>), field)) {
        reject(prefix, name, expects(field));
    }
}

/// Reads the member of `v` at dotted `path` into `field`, if present.
template <class T>
void read_at(const json::Value& v, std::string_view path, T& field, const std::string& prefix) {
    const json::Value* j = &v;
    for (std::size_t from = 0, dot = 0; j && dot != path.npos; from = dot + 1) {
        dot = path.find('.', from);
        j = j->find(std::string(path.substr(from, dot - from)));
    }
    if (j) read_value(*j, field, prefix, path);
}

/// Reads every listed field present in `v` into `s`.
template <Listed S>
void read_members(const json::Value& v, S& s, const std::string& prefix) {
    for_each_field(s, [&](std::string_view path, auto& field) { read_at(v, path, field, prefix); });
}

}  // namespace tibfit::obs::fields
