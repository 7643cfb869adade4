#include "telemetry/report.hpp"

#include "common/json_escape.hpp"
#include "common/types.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace mnt::tel
{

namespace
{

/// Shortest round-trippable representation of a double that is always valid
/// JSON (no inf/nan literals: they are clamped to the largest finite value).
std::string json_number(double value)
{
    if (std::isnan(value))
    {
        value = 0.0;
    }
    else if (std::isinf(value))
    {
        value = value > 0 ? std::numeric_limits<double>::max() : std::numeric_limits<double>::lowest();
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void write_span_json(const span_node& node, std::ostream& output, const std::string& indent)
{
    output << indent << "{\"name\": \"" << json_escape(node.name) << "\", \"calls\": " << node.calls
           << ", \"seconds\": " << json_number(node.seconds);
    if (!node.children.empty())
    {
        output << ", \"children\": [\n";
        for (std::size_t i = 0; i < node.children.size(); ++i)
        {
            write_span_json(*node.children[i], output, indent + "  ");
            output << (i + 1 < node.children.size() ? ",\n" : "\n");
        }
        output << indent << "]";
    }
    output << "}";
}

void write_span_text(const span_node& node, std::ostream& output, const int depth)
{
    char line[160];
    std::snprintf(line, sizeof(line), "%*s%-*s calls=%llu total=%.6fs\n", 2 * depth, "",
                  std::max(40 - 2 * depth, 1), node.name.c_str(),
                  static_cast<unsigned long long>(node.calls), node.seconds);
    output << line;
    for (const auto& child : node.children)
    {
        write_span_text(*child, output, depth + 1);
    }
}

}  // namespace

run_report capture_report()
{
    run_scrape_hooks();  // let lazy publishers (taskrt, ...) push their stats first

    auto& reg = registry::instance();
    run_report report{};
    report.counters = reg.counters();
    report.gauges = reg.gauges();
    report.histograms = reg.histograms();
    report.events = reg.events();
    report.dropped_events = reg.dropped_events();
    report.trace = reg.trace();
    return report;
}

void reset()
{
    registry::instance().reset();
}

void write_report_json(const run_report& report, std::ostream& output)
{
    output << "{\n  \"schema\": \"mnt-telemetry-report/2\",\n  \"counters\": [\n";
    for (std::size_t i = 0; i < report.counters.size(); ++i)
    {
        const auto& c = report.counters[i];
        output << "    {\"name\": \"" << json_escape(c.name) << "\", \"value\": " << c.value << "}"
               << (i + 1 < report.counters.size() ? ",\n" : "\n");
    }
    output << "  ],\n  \"gauges\": [\n";
    for (std::size_t i = 0; i < report.gauges.size(); ++i)
    {
        const auto& g = report.gauges[i];
        output << "    {\"name\": \"" << json_escape(g.name) << "\", \"value\": " << json_number(g.value) << "}"
               << (i + 1 < report.gauges.size() ? ",\n" : "\n");
    }
    output << "  ],\n  \"histograms\": [\n";
    for (std::size_t i = 0; i < report.histograms.size(); ++i)
    {
        const auto& h = report.histograms[i];
        output << "    {\"name\": \"" << json_escape(h.name) << "\", \"count\": " << h.count
               << ", \"sum\": " << json_number(h.sum) << ", \"min\": " << json_number(h.min)
               << ", \"max\": " << json_number(h.max) << ", \"buckets\": [";
        bool first = true;
        for (std::size_t b = 0; b < histogram::num_buckets; ++b)
        {
            if (h.buckets[b] == 0)
            {
                continue;  // sparse export: empty buckets are implied
            }
            output << (first ? "" : ", ") << "{\"lo\": " << json_number(histogram::bucket_lower(b))
                   << ", \"hi\": " << json_number(histogram::bucket_upper(b)) << ", \"count\": " << h.buckets[b]
                   << "}";
            first = false;
        }
        output << "]}" << (i + 1 < report.histograms.size() ? ",\n" : "\n");
    }
    output << "  ],\n  \"events\": [\n";
    for (std::size_t i = 0; i < report.events.size(); ++i)
    {
        const auto& e = report.events[i];
        output << "    {\"category\": \"" << json_escape(e.category) << "\", \"label\": \"" << json_escape(e.label)
               << "\", \"kind\": \"" << json_escape(e.kind) << "\", \"message\": \"" << json_escape(e.message)
               << "\", \"value\": " << json_number(e.value) << "}"
               << (i + 1 < report.events.size() ? ",\n" : "\n");
    }
    output << "  ],\n  \"dropped_events\": " << report.dropped_events << ",\n  \"spans\": [\n";
    static const std::vector<std::unique_ptr<span_node>> no_spans;
    const auto& roots = report.trace != nullptr ? report.trace->children : no_spans;
    for (std::size_t i = 0; i < roots.size(); ++i)
    {
        write_span_json(*roots[i], output, "    ");
        output << (i + 1 < roots.size() ? ",\n" : "\n");
    }
    output << "  ]\n}\n";
}

void write_report_json_file(const run_report& report, const std::filesystem::path& path)
{
    std::ofstream file{path};
    if (!file)
    {
        throw mnt_error{"write_report_json_file: cannot open '" + path.string() + "' for writing"};
    }
    write_report_json(report, file);
}

std::string report_json_string(const run_report& report)
{
    std::ostringstream stream;
    write_report_json(report, stream);
    return stream.str();
}

void write_report_text(const run_report& report, std::ostream& output)
{
    output << "== telemetry run report ==\n";
    if (report.trace != nullptr && !report.trace->children.empty())
    {
        output << "spans:\n";
        for (const auto& child : report.trace->children)
        {
            write_span_text(*child, output, 1);
        }
    }
    if (!report.counters.empty())
    {
        output << "counters:\n";
        for (const auto& c : report.counters)
        {
            char line[160];
            std::snprintf(line, sizeof(line), "  %-40s %llu\n", c.name.c_str(),
                          static_cast<unsigned long long>(c.value));
            output << line;
        }
    }
    if (!report.gauges.empty())
    {
        output << "gauges:\n";
        for (const auto& g : report.gauges)
        {
            char line[160];
            std::snprintf(line, sizeof(line), "  %-40s %.6g\n", g.name.c_str(), g.value);
            output << line;
        }
    }
    if (!report.histograms.empty())
    {
        output << "histograms:\n";
        for (const auto& h : report.histograms)
        {
            char line[200];
            std::snprintf(line, sizeof(line), "  %-40s count=%llu sum=%.6g min=%.6g max=%.6g mean=%.6g\n",
                          h.name.c_str(), static_cast<unsigned long long>(h.count), h.sum, h.min, h.max,
                          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0);
            output << line;
        }
    }
    if (!report.events.empty() || report.dropped_events > 0)
    {
        output << "events:\n";
        for (const auto& e : report.events)
        {
            output << "  [" << e.category << "] " << e.label << " (" << e.kind << "): " << e.message << "\n";
        }
        if (report.dropped_events > 0)
        {
            output << "  ... and " << report.dropped_events << " dropped\n";
        }
    }
}

}  // namespace mnt::tel
