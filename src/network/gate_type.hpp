#pragma once

/// \file gate_type.hpp
/// \brief Enumeration of the gate/node functions supported by MNT logic
///        networks and gate-level layouts, plus evaluation helpers.
///
/// The set mirrors the technology-mapped networks used by the fiction
/// framework and the gates realizable in the QCA ONE and Bestagon libraries:
/// inverters and fan-outs are explicit nodes because they occupy tiles in an
/// FCN layout — the resource the MNT Bench benchmarks measure.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mnt::ntk
{

/// Function computed by a network node or a layout tile.
enum class gate_type : std::uint8_t
{
    /// Sentinel for "no gate" (e.g. an empty layout tile).
    none = 0,
    /// Constant logic 0 source.
    const0,
    /// Constant logic 1 source.
    const1,
    /// Primary input.
    pi,
    /// Primary output (forwards its single fanin).
    po,
    /// Buffer / wire segment (identity).
    buf,
    /// Fan-out element: identity with up to two (Cartesian) or two
    /// (hexagonal) outgoing branches. Functionally identical to \ref buf but
    /// kept distinct because gate libraries implement it with a dedicated
    /// cell pattern.
    fanout,
    /// Inverter.
    inv,
    /// 2-input AND.
    and2,
    /// 2-input NAND.
    nand2,
    /// 2-input OR.
    or2,
    /// 2-input NOR.
    nor2,
    /// 2-input XOR.
    xor2,
    /// 2-input XNOR.
    xnor2,
    /// 2-input less-than (~a & b).
    lt2,
    /// 2-input greater-than (a & ~b).
    gt2,
    /// 2-input less-or-equal (~a | b).
    le2,
    /// 2-input greater-or-equal (a | ~b).
    ge2,
    /// 3-input majority.
    maj3
};

/// Number of distinct gate_type values (for table sizing).
inline constexpr std::size_t num_gate_types = static_cast<std::size_t>(gate_type::maj3) + 1u;

/// Returns the number of fanins a node of type \p t expects.
///
/// \ref gate_type::none, constants and PIs take 0; \ref gate_type::maj3
/// takes 3; all other logic functions take their natural arity.
[[nodiscard]] constexpr std::uint8_t gate_arity(const gate_type t) noexcept
{
    switch (t)
    {
        case gate_type::none:
        case gate_type::const0:
        case gate_type::const1:
        case gate_type::pi: return 0;
        case gate_type::po:
        case gate_type::buf:
        case gate_type::fanout:
        case gate_type::inv: return 1;
        case gate_type::maj3: return 3;
        default: return 2;
    }
}

/// Evaluates the Boolean function of \p t on up to three inputs.
///
/// Unused inputs are ignored. Constants evaluate to their value; \ref
/// gate_type::pi and \ref gate_type::none must not be evaluated and yield
/// false.
[[nodiscard]] constexpr bool evaluate_gate(const gate_type t, const bool a = false, const bool b = false,
                                           const bool c = false) noexcept
{
    switch (t)
    {
        case gate_type::const0: return false;
        case gate_type::const1: return true;
        case gate_type::po:
        case gate_type::buf:
        case gate_type::fanout: return a;
        case gate_type::inv: return !a;
        case gate_type::and2: return a && b;
        case gate_type::nand2: return !(a && b);
        case gate_type::or2: return a || b;
        case gate_type::nor2: return !(a || b);
        case gate_type::xor2: return a != b;
        case gate_type::xnor2: return a == b;
        case gate_type::lt2: return !a && b;
        case gate_type::gt2: return a && !b;
        case gate_type::le2: return !a || b;
        case gate_type::ge2: return a || !b;
        case gate_type::maj3: return (a && b) || (a && c) || (b && c);
        default: return false;
    }
}

/// Word-parallel variant of \ref evaluate_gate: evaluates 64 assignments at
/// once on uint64 words.
[[nodiscard]] constexpr std::uint64_t evaluate_gate_word(const gate_type t, const std::uint64_t a = 0,
                                                         const std::uint64_t b = 0,
                                                         const std::uint64_t c = 0) noexcept
{
    switch (t)
    {
        case gate_type::const0: return 0ull;
        case gate_type::const1: return ~0ull;
        case gate_type::po:
        case gate_type::buf:
        case gate_type::fanout: return a;
        case gate_type::inv: return ~a;
        case gate_type::and2: return a & b;
        case gate_type::nand2: return ~(a & b);
        case gate_type::or2: return a | b;
        case gate_type::nor2: return ~(a | b);
        case gate_type::xor2: return a ^ b;
        case gate_type::xnor2: return ~(a ^ b);
        case gate_type::lt2: return ~a & b;
        case gate_type::gt2: return a & ~b;
        case gate_type::le2: return ~a | b;
        case gate_type::ge2: return a | ~b;
        case gate_type::maj3: return (a & b) | (a & c) | (b & c);
        default: return 0ull;
    }
}

/// Row variant of \ref evaluate_gate_word: `dst[i] = evaluate_gate_word(t,
/// a[i], b[i], c[i])` for every i < \p n. A null row reads as zero words, so
/// \p b and \p c may be nullptr for arities below their position. \p dst may
/// be one of the input rows: each word is read before it is written.
constexpr void evaluate_gate_row(const gate_type t, std::uint64_t* dst, const std::uint64_t* a,
                                 const std::uint64_t* b, const std::uint64_t* c, const std::size_t n) noexcept
{
    for (std::size_t i = 0; i < n; ++i)
    {
        dst[i] = evaluate_gate_word(t, a != nullptr ? a[i] : 0ull, b != nullptr ? b[i] : 0ull,
                                    c != nullptr ? c[i] : 0ull);
    }
}

/// Returns a stable lower-case identifier for \p t (used by the .fgl format
/// and all printers). The inverse operation is \ref gate_type_from_name.
[[nodiscard]] std::string_view gate_type_name(gate_type t) noexcept;

/// Parses a gate-type identifier as produced by \ref gate_type_name.
///
/// \returns the parsed type, or \ref gate_type::none if \p name is unknown.
[[nodiscard]] gate_type gate_type_from_name(std::string_view name) noexcept;

/// True for node types that carry combinational logic or connectivity, i.e.
/// everything except \ref gate_type::none.
[[nodiscard]] constexpr bool is_valid_gate(const gate_type t) noexcept
{
    return t != gate_type::none;
}

/// True for types that represent "real" logic gates in the sense of the MNT
/// Bench node count N: excludes none, constants, PIs, POs, buffers and
/// fan-outs.
[[nodiscard]] constexpr bool is_logic_gate(const gate_type t) noexcept
{
    switch (t)
    {
        case gate_type::inv:
        case gate_type::and2:
        case gate_type::nand2:
        case gate_type::or2:
        case gate_type::nor2:
        case gate_type::xor2:
        case gate_type::xnor2:
        case gate_type::lt2:
        case gate_type::gt2:
        case gate_type::le2:
        case gate_type::ge2:
        case gate_type::maj3: return true;
        default: return false;
    }
}

/// True for types whose function is the identity (wire-like).
[[nodiscard]] constexpr bool is_wire_like(const gate_type t) noexcept
{
    return t == gate_type::buf || t == gate_type::fanout || t == gate_type::po;
}

}  // namespace mnt::ntk
