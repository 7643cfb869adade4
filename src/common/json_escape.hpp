#pragma once

/// \file json_escape.hpp
/// \brief UTF-8 validation and JSON string escaping — the one implementation
///        behind every JSON writer in the library (catalog index, service
///        responses, telemetry report, event log, Chrome trace) and the
///        Prometheus label scrubber.

#include <cstddef>
#include <string>
#include <string_view>

namespace mnt
{

/// Length of the well-formed UTF-8 sequence starting at raw[i], or 0 when the
/// bytes are not valid UTF-8 (bad lead byte, truncated or malformed
/// continuation, overlong encoding, surrogate, or beyond U+10FFFF).
[[nodiscard]] std::size_t utf8_sequence_length(std::string_view raw, std::size_t i);

/// Escapes a string for inclusion in a JSON document. The output is always a
/// valid JSON string body regardless of input:
///
/// - `"` and `\` are backslash-escaped; control characters use the short
///   escapes (\b \f \n \r \t) where they exist and `\u00xx` otherwise
///   (DEL/0x7F included).
/// - Well-formed UTF-8 passes through verbatim; every byte that is not part
///   of a well-formed sequence (bad lead byte, truncated or overlong
///   sequence, surrogate, > U+10FFFF) is replaced by an escaped U+FFFD
///   (`�`), one replacement per invalid byte.
[[nodiscard]] std::string json_escape(std::string_view raw);

}  // namespace mnt
