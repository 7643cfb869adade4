#include "telemetry/prometheus.hpp"

#include "common/json_escape.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace mnt::tel
{

namespace
{

/// Replaces invalid UTF-8 with the (literal) U+FFFD replacement character
/// and strips nothing else — the pre-pass for label values and HELP text,
/// whose own escaping layer only handles backslash, quote and newline.
std::string scrub_utf8(const std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();)
    {
        const auto length = utf8_sequence_length(raw, i);
        if (length == 0)
        {
            out += "\xEF\xBF\xBD";  // U+FFFD
            ++i;
            continue;
        }
        out.append(raw.data() + i, length);
        i += length;
    }
    return out;
}

/// Prometheus float rendering: shortest round-trippable decimal, with the
/// format's spellings for the non-finite values.
std::string format_value(const double value)
{
    if (std::isnan(value))
    {
        return "NaN";
    }
    if (std::isinf(value))
    {
        return value > 0 ? "+Inf" : "-Inf";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/// Label names allow [a-zA-Z0-9_] only (no colon, unlike metric names).
std::string sanitize_label_name(const std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw)
    {
        const bool ok =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out.front() >= '0' && out.front() <= '9'))
    {
        out.insert(out.begin(), '_');
    }
    return out;
}

/// `{k="v",k2="v2"}` (or "" without labels); \p extra appends one more
/// pre-rendered `key="value"` pair (the histogram `le` bound).
std::string label_block(const std::vector<std::pair<std::string, std::string>>& labels,
                        const std::string& extra = {})
{
    if (labels.empty() && extra.empty())
    {
        return {};
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : labels)
    {
        if (!first)
        {
            out += ',';
        }
        out += sanitize_label_name(key);
        out += "=\"";
        out += prometheus_escape_label(value);
        out += '"';
        first = false;
    }
    if (!extra.empty())
    {
        if (!first)
        {
            out += ',';
        }
        out += extra;
    }
    out += '}';
    return out;
}

/// One metric family: a # HELP/# TYPE header plus its pre-rendered samples.
struct family
{
    std::string name;
    const char* type{"counter"};
    std::string help;
    std::vector<std::string> lines;
};

/// Groups samples by sanitized metric name, preserving first-seen order (the
/// registry snapshots are sorted by raw name, so the output is stable).
class family_set
{
public:
    family& get(const std::string& name, const char* type, const std::string& raw_base)
    {
        if (const auto it = index.find(name); it != index.end())
        {
            return families[it->second];
        }
        index.emplace(name, families.size());
        families.push_back(family{name, type, raw_base, {}});
        return families.back();
    }

    void write(std::ostream& out) const
    {
        for (const auto& fam : families)
        {
            out << "# HELP " << fam.name << " MNT Bench instrument " << help_escape(fam.help) << '\n';
            out << "# TYPE " << fam.name << ' ' << fam.type << '\n';
            for (const auto& line : fam.lines)
            {
                out << line << '\n';
            }
        }
    }

private:
    /// HELP text escaping: only backslash and newline, per the format.
    static std::string help_escape(const std::string_view raw)
    {
        std::string out;
        out.reserve(raw.size());
        for (const char c : scrub_utf8(raw))
        {
            if (c == '\\')
            {
                out += "\\\\";
            }
            else if (c == '\n')
            {
                out += "\\n";
            }
            else
            {
                out += c;
            }
        }
        return out;
    }

    std::vector<family> families;
    std::unordered_map<std::string, std::size_t> index;
};

}  // namespace

metric_identity parse_instrument_name(const std::string_view raw)
{
    const auto lbracket = raw.find('[');
    if (lbracket == std::string_view::npos || raw.empty() || raw.back() != ']' || lbracket + 1 >= raw.size())
    {
        return {std::string{raw}, {}};
    }
    const auto inner = raw.substr(lbracket + 1, raw.size() - lbracket - 2);
    metric_identity identity{std::string{raw.substr(0, lbracket)}, {}};
    std::size_t pos = 0;
    while (pos <= inner.size())
    {
        auto comma = inner.find(',', pos);
        if (comma == std::string_view::npos)
        {
            comma = inner.size();
        }
        const auto pair = inner.substr(pos, comma - pos);
        const auto eq = pair.find('=');
        if (eq == std::string_view::npos || eq == 0)
        {
            // malformed pair: fall back to the whole raw name as the base so
            // the instrument still shows up on a scrape
            return {std::string{raw}, {}};
        }
        identity.labels.emplace_back(std::string{pair.substr(0, eq)}, std::string{pair.substr(eq + 1)});
        pos = comma + 1;
    }
    return identity;
}

std::string prometheus_metric_name(const std::string_view base)
{
    std::string out = "mnt_";
    out.reserve(base.size() + 4);
    for (const char c : base)
    {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                        c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string prometheus_escape_label(const std::string_view value)
{
    std::string out;
    out.reserve(value.size() + 4);
    for (const char c : scrub_utf8(value))
    {
        if (c == '\\')
        {
            out += "\\\\";
        }
        else if (c == '"')
        {
            out += "\\\"";
        }
        else if (c == '\n')
        {
            out += "\\n";
        }
        else
        {
            out += c;
        }
    }
    return out;
}

double histogram_quantile(const histogram_value& h, double quantile)
{
    if (h.count == 0)
    {
        return 0.0;
    }
    quantile = std::clamp(quantile, 0.0, 1.0);
    const double rank = quantile * static_cast<double>(h.count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram::num_buckets; ++i)
    {
        const auto n = h.buckets[i];
        if (n == 0)
        {
            continue;
        }
        if (static_cast<double>(cumulative + n) >= rank)
        {
            const double lower = histogram::bucket_lower(i);
            const double upper = histogram::bucket_upper(i);
            if (!std::isfinite(upper))
            {
                return h.max;
            }
            const double within = (rank - static_cast<double>(cumulative)) / static_cast<double>(n);
            const double estimate = lower + (upper - lower) * within;
            return std::clamp(estimate, h.min, h.max);
        }
        cumulative += n;
    }
    return h.max;
}

void write_prometheus_text(std::ostream& out)
{
    run_scrape_hooks();  // let lazy publishers (taskrt, ...) push their stats first

    auto& reg = registry::instance();
    family_set families;

    for (const auto& c : reg.counters())
    {
        const auto identity = parse_instrument_name(c.name);
        auto& fam = families.get(prometheus_metric_name(identity.base), "counter", identity.base);
        fam.lines.push_back(fam.name + label_block(identity.labels) + ' ' + std::to_string(c.value));
    }
    for (const auto& g : reg.gauges())
    {
        const auto identity = parse_instrument_name(g.name);
        auto& fam = families.get(prometheus_metric_name(identity.base), "gauge", identity.base);
        fam.lines.push_back(fam.name + label_block(identity.labels) + ' ' + format_value(g.value));
    }
    for (const auto& h : reg.histograms())
    {
        const auto identity = parse_instrument_name(h.name);
        auto& fam = families.get(prometheus_metric_name(identity.base), "histogram", identity.base);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < histogram::num_buckets; ++i)
        {
            if (h.buckets[i] == 0)
            {
                continue;  // the 64-bucket grid is sparse; empty bounds add nothing cumulative
            }
            cumulative += h.buckets[i];
            fam.lines.push_back(fam.name + "_bucket" +
                                label_block(identity.labels,
                                            "le=\"" + format_value(histogram::bucket_upper(i)) + '"') +
                                ' ' + std::to_string(cumulative));
        }
        fam.lines.push_back(fam.name + "_bucket" + label_block(identity.labels, "le=\"+Inf\"") + ' ' +
                            std::to_string(h.count));
        fam.lines.push_back(fam.name + "_sum" + label_block(identity.labels) + ' ' + format_value(h.sum));
        fam.lines.push_back(fam.name + "_count" + label_block(identity.labels) + ' ' +
                            std::to_string(h.count));
    }

    families.write(out);
}

std::string prometheus_text()
{
    std::ostringstream out;
    write_prometheus_text(out);
    return out.str();
}

}  // namespace mnt::tel
