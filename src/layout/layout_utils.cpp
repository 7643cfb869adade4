#include "layout/layout_utils.hpp"

#include "common/types.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace mnt::lyt
{

std::vector<coordinate> topological_tile_order(const gate_level_layout& layout)
{
    std::unordered_map<coordinate, std::size_t, coordinate_hash> indegree;
    std::deque<coordinate> queue;

    layout.foreach_tile(
        [&](const coordinate& c, const gate_level_layout::tile_data& d)
        {
            indegree[c] = d.incoming.size();
            if (d.incoming.empty())
            {
                queue.push_back(c);
            }
        });

    // deterministic processing order for reproducible extraction
    std::sort(queue.begin(), queue.end());

    std::vector<coordinate> order;
    order.reserve(layout.num_occupied());

    while (!queue.empty())
    {
        const auto c = queue.front();
        queue.pop_front();
        order.push_back(c);
        for (const auto& succ : layout.outgoing_of(c))
        {
            if (--indegree.at(succ) == 0)
            {
                queue.push_back(succ);
            }
        }
    }

    if (order.size() != layout.num_occupied())
    {
        throw design_rule_error{"topological_tile_order: layout connectivity contains a cycle"};
    }
    return order;
}

ntk::logic_network extract_network(const gate_level_layout& layout)
{
    const auto order = topological_tile_order(layout);

    ntk::logic_network network{layout.layout_name()};
    std::unordered_map<coordinate, ntk::logic_network::node, coordinate_hash> node_of;

    for (const auto& c : order)
    {
        const auto& d = layout.get(c);
        switch (d.type)
        {
            case ntk::gate_type::pi: node_of[c] = network.create_pi(layout.io_name_of(c)); break;
            case ntk::gate_type::po:
            {
                if (d.incoming.size() != 1)
                {
                    throw design_rule_error{"extract_network: PO tile " + c.to_string() + " must have one fanin"};
                }
                node_of[c] = network.create_po(node_of.at(d.incoming[0]), layout.io_name_of(c));
                break;
            }
            default:
            {
                const auto expected = (c.z == 1) ? std::size_t{1} : static_cast<std::size_t>(ntk::gate_arity(d.type));
                if (d.incoming.size() != expected)
                {
                    throw design_rule_error{"extract_network: tile " + c.to_string() + " of type " +
                                            std::string{ntk::gate_type_name(d.type)} + " has " +
                                            std::to_string(d.incoming.size()) + " fanins, expected " +
                                            std::to_string(expected)};
                }
                std::vector<ntk::logic_network::node> fis;
                fis.reserve(d.incoming.size());
                for (const auto& in : d.incoming)
                {
                    fis.push_back(node_of.at(in));
                }
                node_of[c] = network.create_gate(d.type, fis);
                break;
            }
        }
    }
    return network;
}

layout_statistics collect_layout_statistics(const gate_level_layout& layout)
{
    layout_statistics stats{};
    stats.name = layout.layout_name();
    stats.width = layout.width();
    stats.height = layout.height();
    stats.area = layout.area();
    stats.num_gates = layout.num_gates();
    stats.num_wires = layout.num_wires();
    stats.num_crossings = layout.num_crossings();
    stats.num_pis = layout.num_pis();
    stats.num_pos = layout.num_pos();

    // critical path: longest chain in tile levels
    std::unordered_map<coordinate, std::uint32_t, coordinate_hash> level;
    for (const auto& c : topological_tile_order(layout))
    {
        std::uint32_t lvl = 0;
        for (const auto& in : layout.incoming_of(c))
        {
            lvl = std::max(lvl, level.at(in) + 1u);
        }
        level[c] = lvl;
        stats.critical_path = std::max(stats.critical_path, lvl);
    }
    return stats;
}

}  // namespace mnt::lyt
