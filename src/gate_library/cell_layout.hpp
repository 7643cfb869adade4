#pragma once

/// \file cell_layout.hpp
/// \brief Cell-level FCN layouts: the physical realization beneath the
///        gate level. QCA layouts consist of quantum-dot cells on a square
///        grid; SiDB layouts consist of dangling-bond dots on the
///        hydrogen-passivated silicon lattice (abstracted to a grid here;
///        see DESIGN.md §4 for the simplification).

#include "layout/coordinates.hpp"

#include "common/types.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mnt::gl
{

/// Implementation technology of a cell-level layout.
enum class cell_technology : std::uint8_t
{
    /// Quantum-dot Cellular Automata (QCA ONE library).
    qca,
    /// Silicon Dangling Bonds (Bestagon library).
    sidb
};

/// Returns "QCA" or "SiDB".
[[nodiscard]] std::string technology_name(cell_technology tech);

/// Role of a single cell.
enum class cell_kind : std::uint8_t
{
    /// Regular logic/wire cell.
    normal,
    /// Primary input cell.
    input,
    /// Primary output cell.
    output,
    /// Polarization fixed to -1 (logic 0); turns a majority into AND.
    fixed_0,
    /// Polarization fixed to +1 (logic 1); turns a majority into OR.
    fixed_1,
    /// Vertical interconnect cell of a wire crossing (QCA: rotated cell).
    crossover
};

/// A single cell.
struct cell
{
    cell_kind kind{cell_kind::normal};
    /// PI/PO name for input/output cells.
    std::string name;
};

/// A sparse cell-level layout. Coordinates are cell positions (x, y) with
/// z = 1 for the crossing layer; the clock zone of each cell is inherited
/// from its gate-level tile and stored explicitly.
class cell_level_layout
{
public:
    cell_level_layout(std::string layout_name, cell_technology tech, std::uint32_t width, std::uint32_t height);

    [[nodiscard]] const std::string& layout_name() const noexcept;
    [[nodiscard]] cell_technology technology() const noexcept;

    /// Dimensions in cells.
    [[nodiscard]] std::uint32_t width() const noexcept;
    [[nodiscard]] std::uint32_t height() const noexcept;

    /// Places a cell.
    ///
    /// \throws mnt::precondition_error if the position is occupied or
    ///         out of bounds
    void place_cell(const lyt::coordinate& c, cell cell_data, std::uint8_t clock_zone);

    [[nodiscard]] bool is_empty_cell(const lyt::coordinate& c) const;

    /// Read access; throws if empty.
    [[nodiscard]] const cell& get_cell(const lyt::coordinate& c) const;

    /// Clock zone of an occupied cell.
    [[nodiscard]] std::uint8_t clock_zone_of(const lyt::coordinate& c) const;

    [[nodiscard]] std::size_t num_cells() const noexcept;
    [[nodiscard]] std::size_t num_input_cells() const;
    [[nodiscard]] std::size_t num_output_cells() const;

    /// Iterates all cells: fn(coordinate, cell, clock_zone).
    template <typename Fn>
    void foreach_cell(Fn&& fn) const
    {
        for (const auto& [c, payload] : cells)
        {
            fn(c, payload.first, payload.second);
        }
    }

    /// All occupied positions in deterministic (y, x, z) order.
    [[nodiscard]] std::vector<lyt::coordinate> cells_sorted() const;

private:
    std::string name;
    cell_technology tech;
    std::uint32_t w;
    std::uint32_t h;
    std::unordered_map<lyt::coordinate, std::pair<cell, std::uint8_t>, lyt::coordinate_hash> cells;
};

}  // namespace mnt::gl
