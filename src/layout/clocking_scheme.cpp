#include "layout/clocking_scheme.hpp"

#include "common/types.hpp"

#include <algorithm>
#include <cctype>

namespace mnt::lyt
{

std::string clocking_name(const clocking_kind kind)
{
    switch (kind)
    {
        case clocking_kind::twoddwave: return "2DDWave";
        case clocking_kind::use: return "USE";
        case clocking_kind::res: return "RES";
        case clocking_kind::esr: return "ESR";
        case clocking_kind::row: return "ROW";
        case clocking_kind::open: return "OPEN";
    }
    return "OPEN";
}

clocking_kind clocking_from_name(const std::string& name)
{
    std::string lower(name.size(), '\0');
    std::transform(name.cbegin(), name.cend(), lower.begin(),
                   [](const unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
    if (lower == "2ddwave" || lower == "twoddwave" || lower == "2dd")
    {
        return clocking_kind::twoddwave;
    }
    if (lower == "use")
    {
        return clocking_kind::use;
    }
    if (lower == "res")
    {
        return clocking_kind::res;
    }
    if (lower == "esr")
    {
        return clocking_kind::esr;
    }
    if (lower == "row")
    {
        return clocking_kind::row;
    }
    if (lower == "open")
    {
        return clocking_kind::open;
    }
    throw mnt_error{"unknown clocking scheme '" + name + "'"};
}

clocking_scheme::clocking_scheme(const clocking_kind kind) : scheme_kind{kind}
{
    switch (kind)
    {
        case clocking_kind::twoddwave:
            cutout = {{{{0, 1, 2, 3}}, {{1, 2, 3, 0}}, {{2, 3, 0, 1}}, {{3, 0, 1, 2}}}};
            break;
        case clocking_kind::use:
            cutout = {{{{0, 1, 2, 3}}, {{3, 2, 1, 0}}, {{2, 3, 0, 1}}, {{1, 0, 3, 2}}}};
            break;
        case clocking_kind::res:
            cutout = {{{{3, 0, 1, 2}}, {{0, 1, 0, 3}}, {{1, 2, 3, 0}}, {{0, 3, 2, 1}}}};
            break;
        case clocking_kind::esr:
            // serpentine rows: even rows flow east, odd rows flow west, with
            // descents at both ends of each row pair — a
            // richly-connected snake (reconstruction, see DESIGN.md)
            cutout = {{{{0, 1, 2, 3}}, {{3, 2, 1, 0}}, {{0, 1, 2, 3}}, {{3, 2, 1, 0}}}};
            break;
        case clocking_kind::row:
            cutout = {{{{0, 0, 0, 0}}, {{1, 1, 1, 1}}, {{2, 2, 2, 2}}, {{3, 3, 3, 3}}}};
            break;
        case clocking_kind::open: break;
    }
}

clocking_scheme clocking_scheme::create(const clocking_kind kind)
{
    return clocking_scheme{kind};
}

clocking_scheme clocking_scheme::twoddwave()
{
    return clocking_scheme{clocking_kind::twoddwave};
}

clocking_scheme clocking_scheme::use()
{
    return clocking_scheme{clocking_kind::use};
}

clocking_scheme clocking_scheme::res()
{
    return clocking_scheme{clocking_kind::res};
}

clocking_scheme clocking_scheme::esr()
{
    return clocking_scheme{clocking_kind::esr};
}

clocking_scheme clocking_scheme::row()
{
    return clocking_scheme{clocking_kind::row};
}

clocking_scheme clocking_scheme::open()
{
    return clocking_scheme{clocking_kind::open};
}

std::string clocking_scheme::name() const
{
    return clocking_name(scheme_kind);
}

std::uint8_t clocking_scheme::zone_at(const std::int32_t x, const std::int32_t y) const noexcept
{
    if (x < 0 || y < 0 || x >= static_cast<std::int32_t>(assigned_w) || y >= static_cast<std::int32_t>(assigned_h))
    {
        return unassigned;
    }
    return assigned[static_cast<std::size_t>(y) * assigned_w + static_cast<std::size_t>(x)];
}

std::uint8_t clocking_scheme::clock_number(const coordinate& c) const
{
    if (scheme_kind == clocking_kind::open)
    {
        const auto zone = zone_at(c.x, c.y);
        return zone == unassigned ? std::uint8_t{0} : zone;
    }
    const auto yy = ((c.y % 4) + 4) % 4;
    const auto xx = ((c.x % 4) + 4) % 4;
    return cutout[static_cast<std::size_t>(yy)][static_cast<std::size_t>(xx)];
}

void clocking_scheme::assign_clock(const coordinate& c, const std::uint8_t zone)
{
    if (scheme_kind != clocking_kind::open)
    {
        throw precondition_error{"assign_clock: only OPEN clocking schemes accept per-tile zones"};
    }
    if (zone >= num_clocks)
    {
        throw precondition_error{"assign_clock: zone must be in [0, 4)"};
    }
    if (c.x < 0 || c.y < 0)
    {
        throw precondition_error{"assign_clock: tile " + c.to_string() + " has negative coordinates"};
    }
    const auto x = static_cast<std::uint32_t>(c.x);
    const auto y = static_cast<std::uint32_t>(c.y);
    if (x >= assigned_w || y >= assigned_h)
    {
        // grow the dense grid geometrically so repeated assignments along a
        // diagonal stay amortized-linear
        const auto new_w = std::max({x + 1, assigned_w, assigned_w * 2});
        const auto new_h = std::max({y + 1, assigned_h, assigned_h * 2});
        std::vector<std::uint8_t> grown(static_cast<std::size_t>(new_w) * new_h, unassigned);
        for (std::uint32_t row = 0; row < assigned_h; ++row)
        {
            std::copy_n(assigned.begin() + static_cast<std::ptrdiff_t>(row) * assigned_w, assigned_w,
                        grown.begin() + static_cast<std::ptrdiff_t>(row) * new_w);
        }
        assigned = std::move(grown);
        assigned_w = new_w;
        assigned_h = new_h;
    }
    auto& cell = assigned[static_cast<std::size_t>(y) * assigned_w + x];
    if (cell == unassigned)
    {
        ++assigned_count;
    }
    cell = zone;
}

bool clocking_scheme::has_assigned_clock(const coordinate& c) const
{
    return scheme_kind != clocking_kind::open || zone_at(c.x, c.y) != unassigned;
}

std::size_t clocking_scheme::num_assigned_clocks() const noexcept
{
    return assigned_count;
}

void clocking_scheme::prune_assigned_outside(const std::uint32_t width, const std::uint32_t height)
{
    if (scheme_kind != clocking_kind::open || assigned_count == 0)
    {
        return;
    }
    for (std::uint32_t y = 0; y < assigned_h; ++y)
    {
        for (std::uint32_t x = 0; x < assigned_w; ++x)
        {
            if (x < width && y < height)
            {
                continue;
            }
            auto& cell = assigned[static_cast<std::size_t>(y) * assigned_w + x];
            if (cell != unassigned)
            {
                cell = unassigned;
                --assigned_count;
            }
        }
    }
}

bool clocking_scheme::is_incoming_clocked(const coordinate& to, const coordinate& from) const
{
    return clock_number(to) == static_cast<std::uint8_t>((clock_number(from) + 1) % num_clocks);
}

bool clocking_scheme::operator==(const clocking_scheme& other) const
{
    if (scheme_kind != other.scheme_kind || cutout != other.cutout || assigned_count != other.assigned_count)
    {
        return false;
    }
    // dense extents may differ (they track assignment history, not content):
    // compare the assigned sets semantically
    for (std::uint32_t y = 0; y < assigned_h; ++y)
    {
        for (std::uint32_t x = 0; x < assigned_w; ++x)
        {
            const auto zone = assigned[static_cast<std::size_t>(y) * assigned_w + x];
            if (zone != unassigned &&
                zone != other.zone_at(static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)))
            {
                return false;
            }
        }
    }
    return true;
}

std::vector<clocking_kind> regular_schemes_for(const layout_topology topo)
{
    if (topo == layout_topology::cartesian)
    {
        return {clocking_kind::twoddwave, clocking_kind::use, clocking_kind::res, clocking_kind::esr,
                clocking_kind::row};
    }
    return {clocking_kind::row};
}

}  // namespace mnt::lyt
