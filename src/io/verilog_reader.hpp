#pragma once

/// \file verilog_reader.hpp
/// \brief Structural Verilog front end for the "Network (.v)" abstraction
///        level of MNT Bench.
///
/// The supported subset matches what logic synthesis tools (mockturtle, ABC)
/// emit for FCN benchmarks and what MNT Bench distributes:
///
/// - a single module with a port list,
/// - `input` / `output` / `wire` declarations (scalar nets, comma lists),
/// - continuous assignments `assign lhs = expr;` where expr is built from
///   identifiers, constants (1'b0/1'b1/1'h0/1'h1), parentheses and the
///   operators ~ (not), & (and), ^ (xor), | (or) with standard precedence
///   (~ > & > ^ > |),
/// - gate primitive instantiations `and g1(y, a, b);`, `not(y, a);`,
///   `maj(y, a, b, c);` etc. (one output, first terminal),
/// - `//` line and `/* */` block comments.
///
/// Assignments may appear in any order; dependencies are resolved after
/// parsing. Combinational cycles are rejected.

#include "network/logic_network.hpp"

#include <filesystem>
#include <string>

namespace mnt::io
{

/// Parses a Verilog module from an in-memory string into a logic network,
/// tokenizing \p source in place.
///
/// \param source the Verilog source text
/// \param name fallback network name when the module has none
/// \throws mnt::parse_error on syntax errors, undeclared nets, multiply
///         driven nets, or combinational cycles
[[nodiscard]] ntk::logic_network read_verilog_string(const std::string& source, const std::string& name = "top");

/// Reads the file at \p path (\ref mnt::read_file) and parses it; the file's
/// stem is the fallback network name.
///
/// \throws mnt::mnt_error naming the path if the file cannot be read;
///         mnt::parse_error on syntax errors
[[nodiscard]] ntk::logic_network read_verilog_file(const std::filesystem::path& path);

}  // namespace mnt::io
