#include "verification/drc.hpp"

#include "common/taskrt/taskrt.hpp"
#include "layout/layout_utils.hpp"
#include "telemetry/telemetry.hpp"

#include "common/types.hpp"

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mnt::ver
{

namespace
{

using lyt::coordinate;
using lyt::gate_level_layout;

/// Per-row DRC findings, bucketed by check family so the fused single scan
/// reproduces the historic two-pass message order exactly: all tile-rule
/// errors (in scan order) first, then all connectivity errors, then the
/// connectivity warnings.
struct row_findings
{
    std::vector<std::string> rule_errors;
    std::vector<std::string> conn_errors;
    std::vector<std::string> conn_warnings;
};

/// Both per-tile check families — the old check_tile_rules and
/// check_connectivity bodies — fused into one visit, so the grid is scanned
/// once instead of twice. Reads only const layout state: rows are checked
/// concurrently by the task runtime.
void check_tile(const gate_level_layout& layout, const coordinate& c, const gate_level_layout::tile_data& d,
                row_findings& out)
{
    // --- tile rules
    if (!layout.within_bounds(c))
    {
        out.rule_errors.push_back("tile " + c.to_string() + " lies outside the layout bounds");
    }
    if (c.z == 1)
    {
        if (d.type != ntk::gate_type::buf)
        {
            out.rule_errors.push_back("crossing tile " + c.to_string() + " hosts a non-wire gate");
        }
        if (layout.type_of(c.ground()) != ntk::gate_type::buf)
        {
            out.rule_errors.push_back("crossing tile " + c.to_string() +
                                      " does not sit above a ground-layer wire");
        }
    }

    // --- connectivity
    const auto expected = (c.z == 1) ? std::size_t{1} : static_cast<std::size_t>(ntk::gate_arity(d.type));
    if (d.incoming.size() != expected)
    {
        out.conn_errors.push_back("tile " + c.to_string() + " (" + std::string{ntk::gate_type_name(d.type)} +
                                  ") has " + std::to_string(d.incoming.size()) + " fanins, expected " +
                                  std::to_string(expected));
    }

    for (const auto& in : d.incoming)
    {
        if (layout.is_empty_tile(in))
        {
            out.conn_errors.push_back("tile " + c.to_string() + " is fed by empty tile " + in.to_string());
            continue;
        }
        if (!lyt::are_adjacent(in, c, layout.topology()))
        {
            out.conn_errors.push_back("connection " + in.to_string() + " -> " + c.to_string() +
                                      " links non-adjacent tiles");
        }
        if (!layout.clocking().is_incoming_clocked(c, in))
        {
            out.conn_errors.push_back("connection " + in.to_string() + " -> " + c.to_string() +
                                      " violates the clocking (zones " +
                                      std::to_string(layout.clock_number(in)) + " -> " +
                                      std::to_string(layout.clock_number(c)) + ")");
        }
    }

    // fanout capacity
    const auto branches = layout.outgoing_of(c).size();
    const auto capacity = [&]() -> std::size_t
    {
        switch (d.type)
        {
            case ntk::gate_type::po: return 0;
            case ntk::gate_type::fanout: return max_fanout_branches;
            default: return 1;
        }
    }();
    if (branches > capacity)
    {
        out.conn_errors.push_back("tile " + c.to_string() + " (" + std::string{ntk::gate_type_name(d.type)} +
                                  ") drives " + std::to_string(branches) + " successors, allowed " +
                                  std::to_string(capacity));
    }
    if (d.type != ntk::gate_type::po && branches == 0)
    {
        out.conn_warnings.push_back("tile " + c.to_string() + " drives no successor (dead output)");
    }
}

void check_io(const gate_level_layout& layout, drc_report& report)
{
    std::set<std::string> pi_names;
    for (const auto& c : layout.pi_tiles())
    {
        const auto& name = layout.io_name_of(c);
        if (name.empty())
        {
            report.errors.push_back("PI tile " + c.to_string() + " has no name");
        }
        else if (!pi_names.insert(name).second)
        {
            report.errors.push_back("duplicate PI name '" + name + "'");
        }
        const bool border = c.x == 0 || c.y == 0 || c.x == static_cast<std::int32_t>(layout.width()) - 1 ||
                            c.y == static_cast<std::int32_t>(layout.height()) - 1;
        if (!border)
        {
            report.warnings.push_back("PI '" + name + "' at " + c.to_string() + " is not on the layout border");
        }
    }

    std::set<std::string> po_names;
    for (const auto& c : layout.po_tiles())
    {
        const auto& name = layout.io_name_of(c);
        if (name.empty())
        {
            report.errors.push_back("PO tile " + c.to_string() + " has no name");
        }
        else if (!po_names.insert(name).second)
        {
            report.errors.push_back("duplicate PO name '" + name + "'");
        }
        const bool border = c.x == 0 || c.y == 0 || c.x == static_cast<std::int32_t>(layout.width()) - 1 ||
                            c.y == static_cast<std::int32_t>(layout.height()) - 1;
        if (!border)
        {
            report.warnings.push_back("PO '" + name + "' at " + c.to_string() + " is not on the layout border");
        }
    }
}

void check_acyclic(const gate_level_layout& layout, drc_report& report)
{
    try
    {
        static_cast<void>(lyt::topological_tile_order(layout));
    }
    catch (const mnt::design_rule_error& e)
    {
        report.errors.emplace_back(e.what());
    }
}

}  // namespace

drc_report gate_level_drc(const lyt::gate_level_layout& layout)
{
    MNT_SPAN("verification/drc");
    drc_report report{};

    // Row-batched fused sweep: one grid scan (instead of the historic
    // tile-rules + connectivity double scan) over independent (z, y) rows,
    // parallelized by the task runtime on multi-core configurations. Row
    // buckets are concatenated in row order per check family, so the report
    // is byte-identical to the sequential two-pass output at any thread
    // count.
    const auto height = layout.height();
    const auto rows   = 2 * height;  // ground layer rows, then crossing layer rows

    // occupancy prefilter: one pass over the occupied tiles marks which
    // (z, y) rows actually host gates, and only those enter the parallel
    // sweep. The crossing layer is almost entirely empty on real layouts,
    // so this halves (or better) the number of scanned rows.
    std::vector<std::uint8_t> row_occupied(rows, 0);
    layout.foreach_tile(
        [&](const coordinate& c, const gate_level_layout::tile_data&)
        { row_occupied[static_cast<std::size_t>(c.z) * height + static_cast<std::size_t>(c.y)] = 1; });
    std::vector<std::size_t> occupied_rows;
    occupied_rows.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r)
    {
        if (row_occupied[r] != 0)
        {
            occupied_rows.push_back(r);
        }
    }

    // findings are bucketed per occupied row; concatenating the buckets in
    // (ascending-row) bucket order below yields the exact sequential report
    // because empty rows contribute nothing.
    std::vector<row_findings> findings(occupied_rows.size());
    trt::parallel_for(0, occupied_rows.size(), 1,
                      [&](const std::size_t bucket_begin, const std::size_t bucket_end)
                      {
                          for (std::size_t i = bucket_begin; i < bucket_end; ++i)
                          {
                              const auto r = occupied_rows[i];
                              const auto z = static_cast<std::uint8_t>(r / height);
                              const auto y = static_cast<std::int32_t>(r % height);
                              layout.foreach_tile_in_row(
                                  z, y, [&](const coordinate& c, const gate_level_layout::tile_data& d)
                                  { check_tile(layout, c, d, findings[i]); });
                          }
                      });

    for (auto& row : findings)
    {
        for (auto& message : row.rule_errors)
        {
            report.errors.push_back(std::move(message));
        }
    }
    for (auto& row : findings)
    {
        for (auto& message : row.conn_errors)
        {
            report.errors.push_back(std::move(message));
        }
    }
    for (auto& row : findings)
    {
        for (auto& message : row.conn_warnings)
        {
            report.warnings.push_back(std::move(message));
        }
    }

    check_io(layout, report);
    check_acyclic(layout, report);
    return report;
}

}  // namespace mnt::ver
