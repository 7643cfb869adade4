#include "core/json_export.hpp"

#include "common/json_escape.hpp"

#include <sstream>

namespace mnt::cat
{

namespace
{

void write_network(const network_record& n, std::ostream& output, const char* indent)
{
    output << indent << "{\"set\": \"" << json_escape(n.benchmark_set) << "\", \"name\": \""
           << json_escape(n.benchmark_name) << "\", \"inputs\": " << n.num_pis << ", \"outputs\": " << n.num_pos
           << ", \"gates\": " << n.num_gates << "}";
}

void write_layout(const layout_record& r, std::ostream& output, const char* indent)
{
    output << indent << "{\"set\": \"" << json_escape(r.benchmark_set) << "\", \"name\": \""
           << json_escape(r.benchmark_name) << "\", \"library\": \"" << json_escape(gate_library_name(r.library))
           << "\", \"clocking\": \"" << json_escape(r.clocking) << "\", \"algorithm\": \""
           << json_escape(r.algorithm) << "\", \"optimizations\": [";
    for (std::size_t i = 0; i < r.optimizations.size(); ++i)
    {
        output << (i == 0 ? "" : ", ") << '"' << json_escape(r.optimizations[i]) << '"';
    }
    output << "], \"width\": " << r.width << ", \"height\": " << r.height << ", \"area\": " << r.area
           << ", \"gates\": " << r.num_gates << ", \"wires\": " << r.num_wires
           << ", \"crossings\": " << r.num_crossings << ", \"runtime_s\": " << r.runtime << "}";
}

void write_failure(const failure_record& f, std::ostream& output, const char* indent)
{
    output << indent << "{\"set\": \"" << json_escape(f.benchmark_set) << "\", \"name\": \""
           << json_escape(f.benchmark_name) << "\", \"library\": \"" << json_escape(gate_library_name(f.library))
           << "\", \"combination\": \"" << json_escape(f.combination) << "\", \"kind\": \""
           << json_escape(f.kind) << "\", \"message\": \"" << json_escape(f.message)
           << "\", \"elapsed_s\": " << f.elapsed_s << ", \"attempts\": " << f.attempts << "}";
}

template <typename NetworkRange, typename LayoutRange, typename FailureRange>
void write_document(const NetworkRange& networks, const LayoutRange& layouts, const FailureRange& failures,
                    std::ostream& output)
{
    output << "{\n  \"networks\": [\n";
    bool first = true;
    for (const auto& n : networks)
    {
        if (!first)
        {
            output << ",\n";
        }
        first = false;
        write_network(n, output, "    ");
    }
    output << "\n  ],\n  \"layouts\": [\n";
    first = true;
    for (const auto* r : layouts)
    {
        if (!first)
        {
            output << ",\n";
        }
        first = false;
        write_layout(*r, output, "    ");
    }
    output << "\n  ],\n  \"failures\": [\n";
    first = true;
    for (const auto* f : failures)
    {
        if (!first)
        {
            output << ",\n";
        }
        first = false;
        write_failure(*f, output, "    ");
    }
    output << "\n  ]\n}\n";
}

}  // namespace

void write_catalog_json(const catalog& cat, std::ostream& output)
{
    std::vector<const layout_record*> all;
    all.reserve(cat.num_layouts());
    for (const auto& r : cat.layouts())
    {
        all.push_back(&r);
    }
    std::vector<const failure_record*> failed;
    failed.reserve(cat.num_failures());
    for (const auto& f : cat.failures())
    {
        failed.push_back(&f);
    }
    write_document(cat.networks(), all, failed, output);
}

void write_selection_json(const catalog& cat, const std::vector<const layout_record*>& selection,
                          std::ostream& output)
{
    // referenced networks only, in catalog order
    std::vector<network_record> networks;
    for (const auto& n : cat.networks())
    {
        for (const auto* r : selection)
        {
            if (r->benchmark_set == n.benchmark_set && r->benchmark_name == n.benchmark_name)
            {
                networks.push_back(n);
                break;
            }
        }
    }
    // failures of the selected benchmarks only
    std::vector<const failure_record*> failed;
    for (const auto& f : cat.failures())
    {
        for (const auto& n : networks)
        {
            if (f.benchmark_set == n.benchmark_set && f.benchmark_name == n.benchmark_name)
            {
                failed.push_back(&f);
                break;
            }
        }
    }
    write_document(networks, selection, failed, output);
}

std::string catalog_json_string(const catalog& cat)
{
    std::ostringstream stream;
    write_catalog_json(cat, stream);
    return stream.str();
}

}  // namespace mnt::cat
