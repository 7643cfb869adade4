#pragma once

/// \file json.hpp
/// \brief Minimal JSON document model for the benchmark service layer: a
///        recursive-descent parser and a deterministic writer. The store
///        manifest (store.hpp), the query wire format (query.hpp) and the
///        catalog documents (/benchmarks and the export index,
///        snapshot.hpp) all speak this dialect.
///
/// Scope: full JSON values (null, booleans, numbers, strings, arrays,
/// objects) with \uXXXX escape decoding (including surrogate pairs) to
/// UTF-8. Numbers are held as doubles — every quantity the service layer
/// persists (areas, counts, seconds) is far below 2^53, where doubles are
/// exact. Objects are kept in insertion order for faithful round-trips;
/// lookup is linear, which is fine at manifest-entry fan-out.

#include "common/types.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mnt::svc
{

/// One JSON value of any kind. Deliberately a closed value type (no
/// polymorphism): manifests and wire messages are small.
class json_value
{
public:
    enum class kind : std::uint8_t
    {
        null,
        boolean,
        number,
        string,
        array,
        object
    };

    using array_type = std::vector<json_value>;
    /// Insertion-ordered key/value list (manifests round-trip faithfully).
    using object_type = std::vector<std::pair<std::string, json_value>>;

    json_value() = default;  ///< null
    json_value(bool b) : value_kind{kind::boolean}, boolean_value{b} {}
    json_value(double n) : value_kind{kind::number}, number_value{n} {}
    json_value(std::uint64_t n) : value_kind{kind::number}, number_value{static_cast<double>(n)} {}
    json_value(int n) : value_kind{kind::number}, number_value{static_cast<double>(n)} {}
    json_value(std::string s) : value_kind{kind::string}, string_value{std::move(s)} {}
    json_value(const char* s) : value_kind{kind::string}, string_value{s} {}

    [[nodiscard]] static json_value make_array()
    {
        json_value v;
        v.value_kind = kind::array;
        return v;
    }

    [[nodiscard]] static json_value make_object()
    {
        json_value v;
        v.value_kind = kind::object;
        return v;
    }

    [[nodiscard]] kind type() const noexcept
    {
        return value_kind;
    }

    [[nodiscard]] bool is_null() const noexcept { return value_kind == kind::null; }
    [[nodiscard]] bool is_boolean() const noexcept { return value_kind == kind::boolean; }
    [[nodiscard]] bool is_number() const noexcept { return value_kind == kind::number; }
    [[nodiscard]] bool is_string() const noexcept { return value_kind == kind::string; }
    [[nodiscard]] bool is_array() const noexcept { return value_kind == kind::array; }
    [[nodiscard]] bool is_object() const noexcept { return value_kind == kind::object; }

    /// Checked accessors.
    ///
    /// \throws mnt::mnt_error when the value holds a different kind
    [[nodiscard]] bool as_boolean() const;
    [[nodiscard]] double as_number() const;
    /// \throws mnt::mnt_error also when the number is negative or not integral
    [[nodiscard]] std::uint64_t as_u64() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const array_type& as_array() const;
    [[nodiscard]] const object_type& as_object() const;

    /// First member named \p key, or nullptr.
    [[nodiscard]] const json_value* find(std::string_view key) const;

    /// \throws mnt::mnt_error when \p key is absent
    [[nodiscard]] const json_value& at(std::string_view key) const;

    /// Appends to an array value (converts a null value into an array).
    void push_back(json_value element);

    /// Appends a member to an object value (converts null into an object).
    void set(std::string key, json_value element);

    /// Serializes to compact JSON with deterministic member order (insertion
    /// order) and minimal-but-round-trip number formatting.
    [[nodiscard]] std::string dump() const;

    /// Parses a complete JSON document; trailing non-whitespace is an error.
    ///
    /// \throws mnt::parse_error with a 1-based line number on malformed input
    [[nodiscard]] static json_value parse(std::string_view text);

private:
    kind value_kind{kind::null};
    bool boolean_value{false};
    double number_value{0.0};
    std::string string_value;
    array_type array_value;
    object_type object_value;
};

/// Formats a double the way the service layer's JSON writers do: integral
/// values without a fractional part, everything else with enough digits to
/// round-trip.
[[nodiscard]] std::string json_number_string(double value);

}  // namespace mnt::svc
