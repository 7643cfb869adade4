#include "core/export.hpp"

#include "io/fgl_writer.hpp"
#include "io/verilog_writer.hpp"

#include <cctype>
#include <set>

namespace mnt::cat
{

std::string sanitize_filename(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw)
    {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.')
        {
            out.push_back(c);
        }
        else if (c == ' ' || c == '_' || c == ',' || c == ':' || c == '/')
        {
            if (!out.empty() && out.back() != '_')
            {
                out.push_back('_');
            }
        }
        // other characters (e.g. the degree sign) are dropped
    }
    while (!out.empty() && out.back() == '_')
    {
        out.pop_back();
    }
    return out.empty() ? "unnamed" : out;
}

export_report export_selection(const catalog& cat, const std::vector<const layout_record*>& selection,
                               const std::filesystem::path& directory)
{
    std::filesystem::create_directories(directory);
    export_report report{};

    std::set<std::pair<std::string, std::string>> exported;
    for (const auto* r : selection)
    {
        const auto key = std::make_pair(r->benchmark_set, r->benchmark_name);
        if (!exported.insert(key).second)
        {
            continue;
        }
        const auto* n = cat.find_network(r->benchmark_set, r->benchmark_name);
        if (n == nullptr)
        {
            report.skipped.push_back("no network registered for " + r->benchmark_set + "/" + r->benchmark_name);
            continue;
        }
        const auto path = directory / (sanitize_filename(r->benchmark_set + "_" + r->benchmark_name) + ".v");
        io::write_verilog_file(n->network, path);
        report.written.push_back(path);
    }

    for (const auto* r : selection)
    {
        const auto stem = sanitize_filename(r->benchmark_set + "_" + r->benchmark_name + "_" +
                                            gate_library_name(r->library) + "_" + r->clocking + "_" + r->label());
        const auto fgl_path = directory / (stem + ".fgl");
        io::write_fgl_file(r->layout, fgl_path);
        report.written.push_back(fgl_path);
    }

    return report;
}

}  // namespace mnt::cat
