#include "io/fgl_reader.hpp"

#include "common/read_file.hpp"
#include "common/types.hpp"
#include "io/xml.hpp"
#include "telemetry/telemetry.hpp"
#include "verification/drc.hpp"

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mnt::io
{

namespace
{

std::int64_t parse_int(const std::string_view text, const std::string& context, const std::size_t line)
{
    std::int64_t value{};
    const auto* begin = text.data();
    const auto* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
    {
        throw parse_error{"invalid integer '" + std::string{text} + "' in " + context, line};
    }
    return value;
}

/// Hard ceiling on width * height accepted from a file. The dense grid
/// allocates storage for every tile up front, so an absurd declared size
/// must be a diagnostic, not an attempted multi-gigabyte allocation.
constexpr std::int64_t max_fgl_area = 16'777'216;  // 2^24 tiles

std::int32_t checked_i32(const std::int64_t value, const std::string& context, const std::size_t line)
{
    if (value < std::numeric_limits<std::int32_t>::min() || value > std::numeric_limits<std::int32_t>::max())
    {
        throw parse_error{"coordinate " + std::to_string(value) + " out of range in " + context, line};
    }
    return static_cast<std::int32_t>(value);
}

lyt::coordinate parse_loc(const xml::node& loc, const std::string& context)
{
    const auto x = checked_i32(parse_int(loc.child_text("x"), context + "/x", loc.line), context + "/x", loc.line);
    const auto y = checked_i32(parse_int(loc.child_text("y"), context + "/y", loc.line), context + "/y", loc.line);
    std::int64_t z = 0;
    if (loc.child("z") != nullptr)
    {
        z = parse_int(loc.child_text("z"), context + "/z", loc.line);
    }
    if (z < 0 || z > 1)
    {
        throw parse_error{"layer z must be 0 or 1 in " + context, loc.line};
    }
    return {x, y, static_cast<std::uint8_t>(z)};
}

}  // namespace

lyt::gate_level_layout read_fgl_file(const std::filesystem::path& path, const fgl_reader_options& options)
{
    return read_fgl_string(read_file(path), options);
}

lyt::gate_level_layout read_fgl_string(const std::string& document, const fgl_reader_options& options)
{
    MNT_SPAN("io/fgl_read");
    const auto tree = xml::parse(document);
    const auto& root = tree.root();

    if (root.tag != "fgl")
    {
        throw parse_error{"root element must be <fgl>, got <" + std::string{root.tag} + ">", root.line};
    }
    const auto* lay = root.child("layout");
    if (lay == nullptr)
    {
        throw parse_error{"missing <layout> element", root.line};
    }

    const auto name = std::string{lay->child_text("name")};
    const auto topo = lyt::topology_from_name(std::string{lay->child_text("topology")});
    const auto clocking_kind = lyt::clocking_from_name(std::string{lay->child_text("clocking")});

    const auto* size = lay->child("size");
    if (size == nullptr)
    {
        throw parse_error{"missing <size> element", lay->line};
    }
    const auto width = parse_int(size->child_text("x"), "size/x", size->line);
    const auto height = parse_int(size->child_text("y"), "size/y", size->line);
    if (width <= 0 || height <= 0)
    {
        throw parse_error{"layout dimensions must be positive", size->line};
    }
    if (width > max_fgl_area || height > max_fgl_area || width * height > max_fgl_area)
    {
        throw parse_error{"layout size " + std::to_string(width) + "x" + std::to_string(height) +
                              " exceeds the supported area of " + std::to_string(max_fgl_area) + " tiles",
                          size->line};
    }

    auto scheme = lyt::clocking_scheme::create(clocking_kind);
    if (!scheme.is_regular())
    {
        const auto* zones = lay->child("clockzones");
        if (zones != nullptr)
        {
            for (const auto* zone : zones->children_of("zone"))
            {
                const auto x = parse_int(zone->child_text("x"), "zone/x", zone->line);
                const auto y = parse_int(zone->child_text("y"), "zone/y", zone->line);
                const auto clock = parse_int(zone->child_text("clock"), "zone/clock", zone->line);
                if (clock < 0 || clock >= lyt::clocking_scheme::num_clocks)
                {
                    throw parse_error{"clock zone must be in [0, 4)", zone->line};
                }
                // zones live on the (already parsed) layout grid; bounding
                // them here keeps hostile coordinates from blowing up the
                // dense per-tile zone storage
                if (x < 0 || y < 0 || x >= width || y >= height)
                {
                    throw parse_error{"clock zone location (" + std::to_string(x) + ", " + std::to_string(y) +
                                          ") is outside the declared layout size",
                                      zone->line};
                }
                scheme.assign_clock({static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)},
                                    static_cast<std::uint8_t>(clock));
            }
        }
    }

    lyt::gate_level_layout layout{name, topo, std::move(scheme), static_cast<std::uint32_t>(width),
                                  static_cast<std::uint32_t>(height)};

    const auto* gates = lay->child("gates");
    if (gates == nullptr)
    {
        throw parse_error{"missing <gates> element", lay->line};
    }

    // first pass: place all gates
    struct pending_connection
    {
        lyt::coordinate from;
        lyt::coordinate to;
        std::size_t line;  // source line of the <loc> for diagnostics
    };
    std::vector<pending_connection> connections;
    std::size_t num_records = 0;

    for (const auto* gate : gates->children_of("gate"))
    {
        ++num_records;
        const auto type_name = gate->child_text("type");
        const auto type = ntk::gate_type_from_name(type_name);
        if (type == ntk::gate_type::none)
        {
            throw parse_error{"unknown gate type '" + std::string{type_name} + "'", gate->line};
        }
        const auto* loc = gate->child("loc");
        if (loc == nullptr)
        {
            throw parse_error{"gate without <loc>", gate->line};
        }
        const auto c = parse_loc(*loc, "gate/loc");
        std::string io_name;
        if (const auto* n = gate->child("name"); n != nullptr)
        {
            io_name = n->text;
        }
        try
        {
            layout.place(c, type, io_name);
        }
        catch (const precondition_error& e)
        {
            throw design_rule_error{std::string{"fgl (line "} + std::to_string(gate->line) + "): " + e.what()};
        }

        if (const auto* incoming = gate->child("incoming"); incoming != nullptr)
        {
            for (const auto* in : incoming->children_of("loc"))
            {
                const auto from = parse_loc(*in, "incoming/loc");
                if (from == c)
                {
                    throw design_rule_error{std::string{"fgl (line "} + std::to_string(in->line) +
                                            "): gate at " + c.to_string() + " lists itself as fanin"};
                }
                connections.push_back({from, c, in->line});
            }
        }
    }

    // second pass: wire up (order within a gate's list preserved)
    for (const auto& conn : connections)
    {
        try
        {
            layout.connect(conn.from, conn.to);
        }
        catch (const precondition_error& e)
        {
            throw design_rule_error{std::string{"fgl (line "} + std::to_string(conn.line) + "): " + e.what()};
        }
    }

    if (options.run_drc)
    {
        const auto report = ver::gate_level_drc(layout);
        if (!report.passed())
        {
            throw design_rule_error{"fgl: design rule check failed: " + report.errors.front() + " (" +
                                    std::to_string(report.errors.size()) + " error(s))"};
        }
    }

    if (tel::enabled())
    {
        tel::count("io.fgl.read_bytes", document.size());
        tel::count("io.fgl.read_records", num_records);
    }
    return layout;
}

}  // namespace mnt::io
