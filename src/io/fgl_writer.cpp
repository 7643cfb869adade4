#include "io/fgl_writer.hpp"

#include "common/types.hpp"
#include "io/xml.hpp"
#include "telemetry/telemetry.hpp"

#include <fstream>
#include <sstream>

namespace mnt::io
{

namespace
{

void add_loc(xml::element& parent, const lyt::coordinate& c)
{
    auto& loc = parent.add("loc");
    loc.add("x", std::to_string(c.x));
    loc.add("y", std::to_string(c.y));
    loc.add("z", std::to_string(c.z));
}

}  // namespace

void write_fgl(const lyt::gate_level_layout& layout, std::ostream& output)
{
    MNT_SPAN("io/fgl_write");
    std::size_t num_records = 0;
    xml::element root;
    root.tag = "fgl";
    auto& lay = root.add("layout");
    lay.add("name", layout.layout_name());
    lay.add("topology", lyt::topology_name(layout.topology()));
    lay.add("clocking", layout.clocking().name());
    auto& size = lay.add("size");
    size.add("x", std::to_string(layout.width()));
    size.add("y", std::to_string(layout.height()));

    // one sorted scan serves both the gate list and the clock-zone list
    const auto tiles = layout.tiles_sorted();

    auto& gates = lay.add("gates");
    for (const auto& c : tiles)
    {
        const auto& d = layout.get(c);
        ++num_records;
        auto& gate = gates.add("gate");
        gate.add("type", std::string{ntk::gate_type_name(d.type)});
        if (const auto& name = layout.io_name_of(c); !name.empty())
        {
            gate.add("name", name);
        }
        add_loc(gate, c);
        if (!d.incoming.empty())
        {
            auto& incoming = gate.add("incoming");
            for (const auto& in : d.incoming)
            {
                add_loc(incoming, in);
            }
        }
    }

    if (!layout.clocking().is_regular())
    {
        auto& zones = lay.add("clockzones");
        for (const auto& c : tiles)
        {
            if (c.z != 0)
            {
                continue;
            }
            auto& zone = zones.add("zone");
            zone.add("x", std::to_string(c.x));
            zone.add("y", std::to_string(c.y));
            zone.add("clock", std::to_string(layout.clock_number(c)));
        }
    }

    const auto document = xml::serialize(root);
    output << document;

    if (tel::enabled())
    {
        tel::count("io.fgl.write_bytes", document.size());
        tel::count("io.fgl.write_records", num_records);
    }
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

std::string write_fgl_string(const lyt::gate_level_layout& layout)
{
    std::ostringstream stream;
    write_fgl(layout, stream);
    return stream.str();
}

}  // namespace mnt::io
