#include "io/fgl_writer.hpp"

#include "common/types.hpp"
#include "io/xml.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string_view>

namespace mnt::io
{

namespace
{

/// Appends an .fgl document: two spaces of indent per level, an element
/// holding text on one line, an empty element as `<tag/>`. Every stored
/// blob is addressed by the hash of these bytes, so none of them may change.
class document_writer
{
public:
    explicit document_writer(std::string& out) : out{out} {}

    void open(const std::string_view tag)
    {
        indent();
        out += '<';
        out += tag;
        out += ">\n";
        ++depth;
    }

    void close(const std::string_view tag)
    {
        --depth;
        indent();
        out += "</";
        out += tag;
        out += ">\n";
    }

    /// An element that holds only text (escaped), or nothing.
    void leaf(const std::string_view tag, const std::string_view text)
    {
        indent();
        out += '<';
        out += tag;
        if (text.empty())
        {
            out += "/>\n";
            return;
        }
        out += '>';
        out += xml::escape(text);
        close_leaf(tag);
    }

    void leaf(const std::string_view tag, const std::int64_t value)
    {
        indent();
        out += '<';
        out += tag;
        out += '>';
        char digits[24];
        const auto [end, ec] = std::to_chars(std::begin(digits), std::end(digits), value);
        out.append(digits, end);
        close_leaf(tag);
    }

    void loc(const lyt::coordinate& c)
    {
        open("loc");
        leaf("x", c.x);
        leaf("y", c.y);
        leaf("z", c.z);
        close("loc");
    }

private:
    void indent()
    {
        out.append(depth * 2, ' ');
    }

    void close_leaf(const std::string_view tag)
    {
        out += "</";
        out += tag;
        out += ">\n";
    }

    std::string& out;
    std::size_t depth{0};
};

}  // namespace

std::string write_fgl_string(const lyt::gate_level_layout& layout)
{
    MNT_SPAN("io/fgl_write");
    // one sorted scan serves both the gate list and the clock-zone list
    const auto tiles = layout.tiles_sorted();

    std::string document;
    // a gate record takes about 280 bytes (measured over the aoi family)
    document.reserve(512 + tiles.size() * 288);
    document += "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n";
    document_writer w{document};
    w.open("fgl");
    w.open("layout");
    w.leaf("name", layout.layout_name());
    w.leaf("topology", lyt::topology_name(layout.topology()));
    w.leaf("clocking", layout.clocking().name());
    w.open("size");
    w.leaf("x", std::int64_t{layout.width()});
    w.leaf("y", std::int64_t{layout.height()});
    w.close("size");

    if (tiles.empty())
    {
        w.leaf("gates", std::string_view{});
    }
    else
    {
        w.open("gates");
        for (const auto& c : tiles)
        {
            const auto& d = layout.get(c);
            w.open("gate");
            w.leaf("type", ntk::gate_type_name(d.type));
            if (const auto& name = layout.io_name_of(c); !name.empty())
            {
                w.leaf("name", name);
            }
            w.loc(c);
            if (!d.incoming.empty())
            {
                w.open("incoming");
                for (const auto& in : d.incoming)
                {
                    w.loc(in);
                }
                w.close("incoming");
            }
            w.close("gate");
        }
        w.close("gates");
    }

    if (!layout.clocking().is_regular())
    {
        const auto has_zone = std::any_of(tiles.begin(), tiles.end(), [](const auto& c) { return c.z == 0; });
        if (!has_zone)
        {
            w.leaf("clockzones", std::string_view{});
        }
        else
        {
            w.open("clockzones");
            for (const auto& c : tiles)
            {
                if (c.z != 0)
                {
                    continue;
                }
                w.open("zone");
                w.leaf("x", c.x);
                w.leaf("y", c.y);
                w.leaf("clock", layout.clock_number(c));
                w.close("zone");
            }
            w.close("clockzones");
        }
    }

    w.close("layout");
    w.close("fgl");

    if (tel::enabled())
    {
        tel::count("io.fgl.write_bytes", document.size());
        tel::count("io.fgl.write_records", tiles.size());
    }
    return document;
}

void write_fgl(const lyt::gate_level_layout& layout, std::ostream& output)
{
    output << write_fgl_string(layout);
}

void write_fgl_file(const lyt::gate_level_layout& layout, const std::filesystem::path& path)
{
    std::ofstream file{path};
    if (!file)
    {
        throw mnt_error{"cannot create .fgl file '" + path.string() + "'"};
    }
    write_fgl(layout, file);
}

}  // namespace mnt::io
