#include "service/json.hpp"

#include "core/json_export.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mnt::svc
{

namespace
{

/// Cursor over the input with line tracking for error messages.
struct parser
{
    std::string_view text;
    std::size_t pos{0};
    std::size_t line{1};

    [[nodiscard]] bool at_end() const noexcept
    {
        return pos >= text.size();
    }

    [[nodiscard]] char peek() const noexcept
    {
        return text[pos];
    }

    char take()
    {
        const char c = text[pos++];
        if (c == '\n')
        {
            ++line;
        }
        return c;
    }

    [[noreturn]] void fail(const std::string& what) const
    {
        throw parse_error{what, line};
    }

    void skip_whitespace()
    {
        while (!at_end())
        {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            {
                break;
            }
            take();
        }
    }

    void expect(const char c)
    {
        if (at_end() || peek() != c)
        {
            fail(std::string{"expected '"} + c + "'");
        }
        take();
    }

    void expect_keyword(const std::string_view keyword)
    {
        if (text.size() - pos < keyword.size() || text.substr(pos, keyword.size()) != keyword)
        {
            fail("invalid literal");
        }
        pos += keyword.size();
    }

    /// Appends the UTF-8 encoding of \p code_point to \p out.
    void append_utf8(std::string& out, const std::uint32_t code_point)
    {
        if (code_point < 0x80)
        {
            out.push_back(static_cast<char>(code_point));
        }
        else if (code_point < 0x800)
        {
            out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
            out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
        }
        else if (code_point < 0x10000)
        {
            out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
        }
        else
        {
            out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
        }
    }

    [[nodiscard]] std::uint32_t parse_hex4()
    {
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
        {
            if (at_end())
            {
                fail("truncated \\u escape");
            }
            const char c = take();
            value <<= 4;
            if (c >= '0' && c <= '9')
            {
                value |= static_cast<std::uint32_t>(c - '0');
            }
            else if (c >= 'a' && c <= 'f')
            {
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            }
            else if (c >= 'A' && c <= 'F')
            {
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            }
            else
            {
                fail("invalid \\u escape digit");
            }
        }
        return value;
    }

    [[nodiscard]] std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true)
        {
            if (at_end())
            {
                fail("unterminated string");
            }
            const char c = take();
            if (c == '"')
            {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20)
            {
                fail("raw control character in string");
            }
            if (c != '\\')
            {
                out.push_back(c);
                continue;
            }
            if (at_end())
            {
                fail("truncated escape");
            }
            const char esc = take();
            switch (esc)
            {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u':
                {
                    std::uint32_t code_point = parse_hex4();
                    if (code_point >= 0xD800 && code_point <= 0xDBFF)
                    {
                        // high surrogate: must be followed by \uDC00..\uDFFF
                        if (text.size() - pos < 2 || text[pos] != '\\' || text[pos + 1] != 'u')
                        {
                            fail("unpaired surrogate");
                        }
                        take();
                        take();
                        const auto low = parse_hex4();
                        if (low < 0xDC00 || low > 0xDFFF)
                        {
                            fail("invalid low surrogate");
                        }
                        code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
                    }
                    else if (code_point >= 0xDC00 && code_point <= 0xDFFF)
                    {
                        fail("unpaired surrogate");
                    }
                    append_utf8(out, code_point);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    [[nodiscard]] json_value parse_number()
    {
        const std::size_t start = pos;
        if (!at_end() && peek() == '-')
        {
            take();
        }
        const auto take_digits = [&]
        {
            std::size_t n = 0;
            while (!at_end() && peek() >= '0' && peek() <= '9')
            {
                take();
                ++n;
            }
            return n;
        };
        const bool leading_zero = !at_end() && peek() == '0';
        if (take_digits() == 0)
        {
            fail("invalid number");
        }
        if (leading_zero && pos - start > (text[start] == '-' ? 2U : 1U))
        {
            fail("invalid number: leading zero");
        }
        if (!at_end() && peek() == '.')
        {
            take();
            if (take_digits() == 0)
            {
                fail("invalid number: missing fraction digits");
            }
        }
        if (!at_end() && (peek() == 'e' || peek() == 'E'))
        {
            take();
            if (!at_end() && (peek() == '+' || peek() == '-'))
            {
                take();
            }
            if (take_digits() == 0)
            {
                fail("invalid number: missing exponent digits");
            }
        }
        const std::string token{text.substr(start, pos - start)};
        return json_value{std::strtod(token.c_str(), nullptr)};
    }

    [[nodiscard]] json_value parse_value(const std::size_t depth)
    {
        if (depth > 64)
        {
            fail("nesting too deep");
        }
        skip_whitespace();
        if (at_end())
        {
            fail("unexpected end of document");
        }
        const char c = peek();
        switch (c)
        {
            case 'n': expect_keyword("null"); return json_value{};
            case 't': expect_keyword("true"); return json_value{true};
            case 'f': expect_keyword("false"); return json_value{false};
            case '"': return json_value{parse_string()};
            case '[':
            {
                take();
                auto array = json_value::make_array();
                skip_whitespace();
                if (!at_end() && peek() == ']')
                {
                    take();
                    return array;
                }
                while (true)
                {
                    array.push_back(parse_value(depth + 1));
                    skip_whitespace();
                    if (at_end())
                    {
                        fail("unterminated array");
                    }
                    const char sep = take();
                    if (sep == ']')
                    {
                        return array;
                    }
                    if (sep != ',')
                    {
                        fail("expected ',' or ']'");
                    }
                }
            }
            case '{':
            {
                take();
                auto object = json_value::make_object();
                skip_whitespace();
                if (!at_end() && peek() == '}')
                {
                    take();
                    return object;
                }
                while (true)
                {
                    skip_whitespace();
                    auto key = parse_string();
                    skip_whitespace();
                    expect(':');
                    object.set(std::move(key), parse_value(depth + 1));
                    skip_whitespace();
                    if (at_end())
                    {
                        fail("unterminated object");
                    }
                    const char sep = take();
                    if (sep == '}')
                    {
                        return object;
                    }
                    if (sep != ',')
                    {
                        fail("expected ',' or '}'");
                    }
                }
            }
            default:
                if (c == '-' || (c >= '0' && c <= '9'))
                {
                    return parse_number();
                }
                fail("unexpected character");
        }
    }
};

void dump_value(const json_value& value, std::string& out)
{
    switch (value.type())
    {
        case json_value::kind::null: out += "null"; break;
        case json_value::kind::boolean: out += value.as_boolean() ? "true" : "false"; break;
        case json_value::kind::number: out += json_number_string(value.as_number()); break;
        case json_value::kind::string:
            out.push_back('"');
            out += cat::json_escape(value.as_string());
            out.push_back('"');
            break;
        case json_value::kind::array:
        {
            out.push_back('[');
            bool first = true;
            for (const auto& element : value.as_array())
            {
                if (!first)
                {
                    out.push_back(',');
                }
                first = false;
                dump_value(element, out);
            }
            out.push_back(']');
            break;
        }
        case json_value::kind::object:
        {
            out.push_back('{');
            bool first = true;
            for (const auto& [key, element] : value.as_object())
            {
                if (!first)
                {
                    out.push_back(',');
                }
                first = false;
                out.push_back('"');
                out += cat::json_escape(key);
                out += "\":";
                dump_value(element, out);
            }
            out.push_back('}');
            break;
        }
    }
}

}  // namespace

std::string json_number_string(const double value)
{
    if (std::isfinite(value) && value == std::floor(value) && std::fabs(value) < 1e15)
    {
        // the digits "%.0f" prints, without the cost of formatting a double
        if (value == 0.0 && std::signbit(value))
        {
            return "-0";
        }
        char buffer[24];
        const auto end = std::to_chars(buffer, buffer + sizeof buffer, static_cast<std::int64_t>(value)).ptr;
        return std::string(buffer, end);
    }
    if (!std::isfinite(value))
    {
        // JSON has no Infinity/NaN; null is the conventional stand-in
        return "null";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    // trim to the shortest representation that round-trips
    for (int precision = 1; precision < 17; ++precision)
    {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
        if (std::strtod(shorter, nullptr) == value)
        {
            return shorter;
        }
    }
    return buffer;
}

bool json_value::as_boolean() const
{
    if (value_kind != kind::boolean)
    {
        throw mnt_error{"json: value is not a boolean"};
    }
    return boolean_value;
}

double json_value::as_number() const
{
    if (value_kind != kind::number)
    {
        throw mnt_error{"json: value is not a number"};
    }
    return number_value;
}

std::uint64_t json_value::as_u64() const
{
    const auto n = as_number();
    if (n < 0.0 || n != std::floor(n) || n > 9.007199254740992e15)
    {
        throw mnt_error{"json: value is not an unsigned integer"};
    }
    return static_cast<std::uint64_t>(n);
}

const std::string& json_value::as_string() const
{
    if (value_kind != kind::string)
    {
        throw mnt_error{"json: value is not a string"};
    }
    return string_value;
}

const json_value::array_type& json_value::as_array() const
{
    if (value_kind != kind::array)
    {
        throw mnt_error{"json: value is not an array"};
    }
    return array_value;
}

const json_value::object_type& json_value::as_object() const
{
    if (value_kind != kind::object)
    {
        throw mnt_error{"json: value is not an object"};
    }
    return object_value;
}

const json_value* json_value::find(const std::string_view key) const
{
    if (value_kind != kind::object)
    {
        return nullptr;
    }
    for (const auto& [name, element] : object_value)
    {
        if (name == key)
        {
            return &element;
        }
    }
    return nullptr;
}

const json_value& json_value::at(const std::string_view key) const
{
    const auto* found = find(key);
    if (found == nullptr)
    {
        throw mnt_error{"json: missing member '" + std::string{key} + "'"};
    }
    return *found;
}

void json_value::push_back(json_value element)
{
    if (value_kind == kind::null)
    {
        value_kind = kind::array;
    }
    if (value_kind != kind::array)
    {
        throw mnt_error{"json: push_back on a non-array value"};
    }
    array_value.push_back(std::move(element));
}

void json_value::set(std::string key, json_value element)
{
    if (value_kind == kind::null)
    {
        value_kind = kind::object;
    }
    if (value_kind != kind::object)
    {
        throw mnt_error{"json: set on a non-object value"};
    }
    object_value.emplace_back(std::move(key), std::move(element));
}

std::string json_value::dump() const
{
    std::string out;
    dump_value(*this, out);
    return out;
}

json_value json_value::parse(const std::string_view text)
{
    parser p{text};
    auto value = p.parse_value(0);
    p.skip_whitespace();
    if (!p.at_end())
    {
        p.fail("trailing characters after document");
    }
    return value;
}

}  // namespace mnt::svc
