#include "telemetry/trace_export.hpp"

#include "common/json_escape.hpp"
#include "common/provenance.hpp"
#include "common/types.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

namespace mnt::tel
{

namespace
{

/// Microsecond timestamps with sub-microsecond precision preserved.
std::string format_us(const double us)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", us);
    return buffer;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const chrome_trace_options& options)
{
    auto& reg = registry::instance();
    const auto events = reg.trace_events();
    const auto dropped = reg.dropped_trace_events();
    const auto& build = prov::build_info();

    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {"
        << "\"tool\": \"" << json_escape(options.process_name) << "\""
        << ", \"version\": \"" << json_escape(build.version) << "\""
        << ", \"compiler\": \"" << json_escape(build.compiler) << "\""
        << ", \"build_type\": \"" << json_escape(build.build_type) << "\""
        << ", \"dropped_events\": " << dropped << "}, \"traceEvents\": [";

    bool first = true;
    const auto comma = [&]
    {
        if (!first)
        {
            out << ", ";
        }
        first = false;
    };

    // process/thread metadata first, so viewers label the lanes
    comma();
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        << "\"args\": {\"name\": \"" << json_escape(options.process_name) << "\"}}";

    std::set<std::uint32_t> tids;
    for (const auto& ev : events)
    {
        tids.insert(ev.tid);
    }
    for (const auto tid : tids)
    {
        comma();
        out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
            << ", \"args\": {\"name\": \"" << (tid == 1 ? "main" : "worker " + std::to_string(tid))
            << "\"}}";
    }

    for (const auto& ev : events)
    {
        comma();
        out << "{\"name\": \"" << json_escape(ev.name) << "\", \"cat\": \"span\", \"ph\": \"X\", "
            << "\"ts\": " << format_us(ev.start_us) << ", \"dur\": " << format_us(ev.dur_us)
            << ", \"pid\": 1, \"tid\": " << ev.tid;
        if (!ev.args.empty())
        {
            out << ", \"args\": {\"detail\": \"" << json_escape(ev.args) << "\"}";
        }
        out << '}';
    }

    out << "]}\n";
}

std::string chrome_trace_string(const chrome_trace_options& options)
{
    std::ostringstream out;
    write_chrome_trace(out, options);
    return out.str();
}

void write_chrome_trace_file(const std::filesystem::path& path, const chrome_trace_options& options)
{
    std::ofstream out{path, std::ios::trunc};
    if (!out)
    {
        throw mnt_error{"trace_export: cannot open '" + path.string() + "' for writing"};
    }
    write_chrome_trace(out, options);
    out.flush();
    if (!out)
    {
        throw mnt_error{"trace_export: short write to '" + path.string() + "'"};
    }
}

std::filesystem::path export_trace_if_requested()
{
    const char* path = std::getenv("MNT_TRACE_OUT");
    if (path == nullptr || *path == '\0')
    {
        return {};
    }
    if (registry::instance().trace_events().empty())
    {
        return {};
    }
    try
    {
        write_chrome_trace_file(path);
        return path;
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "trace_export: %s\n", e.what());
        return {};
    }
}

}  // namespace mnt::tel
