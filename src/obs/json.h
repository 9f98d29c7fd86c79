// Minimal zero-dependency JSON support for the observability layer: a
// streaming writer (correct escaping, comma placement, round-trippable
// doubles) and a small recursive-descent parser used by the field-list
// codec (obs/fields.h) and the test suite. Deliberately not a
// general-purpose JSON library — just enough for tibfit's own artifacts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tibfit::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A parsed JSON value. Numbers are always doubles (tibfit's artifacts
/// never need 64-bit-exact integers above 2^53).
class Value {
  public:
    using Data = std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double d) : data_(d) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
    bool is_bool() const { return std::holds_alternative<bool>(data_); }
    bool is_number() const { return std::holds_alternative<double>(data_); }
    bool is_string() const { return std::holds_alternative<std::string>(data_); }
    bool is_array() const { return std::holds_alternative<Array>(data_); }
    bool is_object() const { return std::holds_alternative<Object>(data_); }

    /// Typed accessors; throw std::bad_variant_access on kind mismatch.
    bool as_bool() const { return std::get<bool>(data_); }
    double as_number() const { return std::get<double>(data_); }
    const std::string& as_string() const { return std::get<std::string>(data_); }
    const Array& as_array() const { return std::get<Array>(data_); }
    const Object& as_object() const { return std::get<Object>(data_); }

    /// Object member lookup; nullptr if absent or not an object.
    const Value* find(const std::string& key) const;

    /// Convenience: member's number/string/bool with a fallback, for
    /// reading the program's own output (tests). Input the program acts
    /// on reads through obs/fields.h, which rejects what these ignore.
    double number_or(const std::string& key, double dflt) const;
    std::string string_or(const std::string& key, const std::string& dflt) const;
    bool bool_or(const std::string& key, bool dflt) const;

  private:
    Data data_;
};

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte offset on malformed input, trailing garbage, or arrays and objects
/// nested deeper than 256.
Value parse(std::string_view text);

/// JSON string escaping (quotes not included).
std::string escape(std::string_view s);

/// Shortest round-trippable rendering of a finite double; NaN/Inf render
/// as null (JSON has no spelling for them).
std::string number_to_string(double v);

/// Streaming writer with automatic comma/indent handling. `indent` = 0
/// writes compact single-line JSON (used for JSONL records).
class Writer {
  public:
    explicit Writer(std::ostream& os, int indent = 0);

    Writer& begin_object();
    Writer& end_object();
    Writer& begin_array();
    Writer& end_array();
    Writer& key(std::string_view name);
    Writer& value(std::string_view v);
    Writer& value(const char* v) { return value(std::string_view(v)); }
    Writer& value(double v);
    Writer& value(std::uint64_t v);
    Writer& value(std::int64_t v);
    Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
    Writer& value(bool v);
    Writer& value_null();

    /// Shorthand for key(name) + value(v).
    template <typename T>
    Writer& field(std::string_view name, T v) {
        key(name);
        return value(v);
    }

  private:
    void before_value();
    void newline();

    std::ostream* os_;
    int indent_;
    int depth_ = 0;
    /// Per-depth flag: has this container already emitted an element?
    std::vector<bool> has_element_;
    bool pending_key_ = false;
};

}  // namespace tibfit::obs::json
