#pragma once

/// \file clocking_scheme.hpp
/// \brief The clocking schemes offered by MNT Bench: 2DDWave, USE, RES, ESR
///        (Cartesian), ROW (Cartesian and hexagonal), and OPEN (irregular).
///
/// FCN circuits are synchronized by external clock fields that partition the
/// layout into clock zones 0..3. Information flows from a tile in zone k to
/// an adjacent tile in zone (k + 1) mod 4. Regular schemes assign zones via a
/// periodic cutout; the OPEN scheme allows per-tile assignment (used by
/// exact physical design to co-optimize the clocking).

#include "layout/coordinates.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mnt::lyt
{

/// Identifier of a predefined clocking scheme.
enum class clocking_kind : std::uint8_t
{
    /// Diagonal wave: clock(x, y) = (x + y) mod 4. Information flows east
    /// and south. The workhorse scheme of scalable FCN physical design.
    twoddwave,
    /// Universal, Scalable, Efficient (Campos et al., 2016): a 4x4 cutout
    /// that forms clock paths snaking through the grid.
    use,
    /// Robust, Efficient, Scalable (Goes et al., 2017).
    res,
    /// Efficient, Scalable, Reliable (Torres et al., 2019-style cutout as
    /// reconstructed for this reproduction; see DESIGN.md).
    esr,
    /// Row clocking: clock(x, y) = y mod 4. Information flows strictly
    /// downward; the scheme of hexagonal Bestagon layouts.
    row,
    /// Irregular scheme with per-tile zones chosen by the designer.
    open
};

/// Returns the canonical lower-case name of \p kind ("2DDWave", "USE", ...).
[[nodiscard]] std::string clocking_name(clocking_kind kind);

/// Parses a clocking scheme name (case-insensitive); throws mnt::mnt_error on
/// unknown names.
[[nodiscard]] clocking_kind clocking_from_name(const std::string& name);

/// A clocking scheme: maps tiles to clock zones and answers information-flow
/// queries. Copyable value type.
class clocking_scheme
{
public:
    /// Number of clock phases (fixed at 4 for all MNT Bench schemes).
    static constexpr std::uint8_t num_clocks = 4;

    /// Constructs one of the predefined schemes.
    static clocking_scheme create(clocking_kind kind);

    /// Convenience factories.
    static clocking_scheme twoddwave();
    static clocking_scheme use();
    static clocking_scheme res();
    static clocking_scheme esr();
    static clocking_scheme row();
    static clocking_scheme open();

    /// The scheme's kind.
    [[nodiscard]] clocking_kind kind() const noexcept
    {
        return scheme_kind;
    }

    /// The scheme's display name.
    [[nodiscard]] std::string name() const;

    /// True if zones come from a periodic cutout (everything except OPEN).
    [[nodiscard]] bool is_regular() const noexcept
    {
        return scheme_kind != clocking_kind::open;
    }

    /// Clock zone of tile \p c (z is ignored: a crossing shares the zone of
    /// its ground tile). For OPEN schemes, returns the assigned zone or 0 if
    /// unassigned.
    [[nodiscard]] std::uint8_t clock_number(const coordinate& c) const;

    /// Assigns a zone in an OPEN scheme.
    ///
    /// \throws precondition_error when called on a regular scheme, with a
    ///         zone >= 4, or with negative coordinates (per-tile zones live
    ///         on the non-negative layout grid)
    void assign_clock(const coordinate& c, std::uint8_t zone);

    /// For OPEN schemes: whether a zone has been explicitly assigned.
    [[nodiscard]] bool has_assigned_clock(const coordinate& c) const;

    /// Number of explicitly assigned per-tile zones (0 for regular schemes).
    [[nodiscard]] std::size_t num_assigned_clocks() const noexcept;

    /// Drops every per-tile zone at x >= width or y >= height. Called by
    /// layout resize/shrink so that stale overrides outside the new bounds
    /// cannot resurface when the layout later grows again. No-op on regular
    /// schemes.
    void prune_assigned_outside(std::uint32_t width, std::uint32_t height);

    /// True if information can flow from tile \p from to planar-adjacent tile
    /// \p to, i.e. zone(to) == zone(from) + 1 (mod 4). Adjacency itself is
    /// *not* checked here (it depends on the layout topology).
    [[nodiscard]] bool is_incoming_clocked(const coordinate& to, const coordinate& from) const;

    bool operator==(const clocking_scheme& other) const;

private:
    explicit clocking_scheme(clocking_kind scheme_kind);

    /// Sentinel marking an unassigned cell of the dense zone grid.
    static constexpr std::uint8_t unassigned = 0xFF;

    /// Grid cell for \p c, or \ref unassigned if outside the stored extent.
    [[nodiscard]] std::uint8_t zone_at(std::int32_t x, std::int32_t y) const noexcept;

    clocking_kind scheme_kind;
    /// 4x4 cutout for regular schemes, indexed [y % 4][x % 4].
    std::array<std::array<std::uint8_t, 4>, 4> cutout{};
    /// Per-tile zones for OPEN schemes as a dense row-major grid over the
    /// ground layer; \ref unassigned marks untouched cells. The extent grows
    /// on demand in \ref assign_clock — layouts assign zones for their own
    /// (non-negative, in-bounds) tiles, so the grid tracks the layout area.
    std::vector<std::uint8_t> assigned;
    std::uint32_t assigned_w{0};
    std::uint32_t assigned_h{0};
    std::size_t assigned_count{0};
};

/// Lists all regular scheme kinds applicable to a topology: Cartesian
/// supports {2DDWave, USE, RES, ESR, ROW}; hexagonal supports {ROW}.
[[nodiscard]] std::vector<clocking_kind> regular_schemes_for(layout_topology topo);

/// Conservative reachability test: returns false only when information
/// provably cannot flow from \p from to \p to under the scheme/topology
/// (e.g. 2DDWave flows strictly east/south; ROW flows strictly down).
/// Snaking schemes (USE/RES/ESR) and OPEN always return true.
[[nodiscard]] constexpr bool may_flow(const clocking_kind kind, const layout_topology topo, const coordinate& from,
                                      const coordinate& to) noexcept
{
    if (kind == clocking_kind::twoddwave)
    {
        return to.x >= from.x && to.y >= from.y && !(to.x == from.x && to.y == from.y);
    }
    if (kind == clocking_kind::row)
    {
        if (topo == layout_topology::hexagonal_even_row)
        {
            const auto dx = to.x > from.x ? std::int64_t{to.x} - from.x : std::int64_t{from.x} - to.x;
            return to.y > from.y && dx <= std::int64_t{to.y} - from.y;
        }
        return to.y > from.y && to.x == from.x;  // Cartesian ROW: straight columns only
    }
    return true;
}

}  // namespace mnt::lyt
