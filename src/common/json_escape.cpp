#include "common/json_escape.hpp"

#include <cstdio>

namespace mnt
{

std::size_t utf8_sequence_length(const std::string_view raw, const std::size_t i)
{
    const auto byte = [&](const std::size_t k) { return static_cast<unsigned char>(raw[k]); };
    const auto is_continuation = [&](const std::size_t k)
    { return k < raw.size() && (byte(k) & 0xC0U) == 0x80U; };

    const auto lead = byte(i);
    if (lead < 0x80U)
    {
        return 1;
    }
    if ((lead & 0xE0U) == 0xC0U)  // 2-byte sequence, U+0080..U+07FF
    {
        return lead >= 0xC2U && is_continuation(i + 1) ? 2 : 0;
    }
    if ((lead & 0xF0U) == 0xE0U)  // 3-byte sequence, U+0800..U+FFFF minus surrogates
    {
        if (!is_continuation(i + 1) || !is_continuation(i + 2))
        {
            return 0;
        }
        if (lead == 0xE0U && byte(i + 1) < 0xA0U)  // overlong
        {
            return 0;
        }
        if (lead == 0xEDU && byte(i + 1) >= 0xA0U)  // UTF-16 surrogate range
        {
            return 0;
        }
        return 3;
    }
    if ((lead & 0xF8U) == 0xF0U)  // 4-byte sequence, U+10000..U+10FFFF
    {
        if (!is_continuation(i + 1) || !is_continuation(i + 2) || !is_continuation(i + 3))
        {
            return 0;
        }
        if (lead == 0xF0U && byte(i + 1) < 0x90U)  // overlong
        {
            return 0;
        }
        if (lead > 0xF4U || (lead == 0xF4U && byte(i + 1) >= 0x90U))  // beyond U+10FFFF
        {
            return 0;
        }
        return 4;
    }
    return 0;  // continuation byte in lead position, or 0xF8..0xFF
}

std::string json_escape(const std::string_view raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    for (std::size_t i = 0; i < raw.size();)
    {
        const auto c = static_cast<unsigned char>(raw[i]);
        switch (c)
        {
            case '"': out += "\\\""; ++i; continue;
            case '\\': out += "\\\\"; ++i; continue;
            case '\b': out += "\\b"; ++i; continue;
            case '\f': out += "\\f"; ++i; continue;
            case '\n': out += "\\n"; ++i; continue;
            case '\r': out += "\\r"; ++i; continue;
            case '\t': out += "\\t"; ++i; continue;
            default: break;
        }
        if (c < 0x20 || c == 0x7F)  // remaining control characters, incl. DEL
        {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
            ++i;
            continue;
        }
        const auto length = utf8_sequence_length(raw, i);
        if (length == 0)
        {
            // invalid byte: substitute U+FFFD (escaped, so the output stays
            // pure ASCII-or-valid-UTF-8 regardless of input) and resync at
            // the next byte
            out += "\\ufffd";
            ++i;
            continue;
        }
        out.append(raw.data() + i, length);
        i += length;
    }
    return out;
}

}  // namespace mnt
