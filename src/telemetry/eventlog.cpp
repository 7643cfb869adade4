#include "telemetry/eventlog.hpp"

#include "common/json_escape.hpp"
#include "common/types.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>

namespace mnt::tel
{

namespace
{

double unix_now_s() noexcept
{
    return std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch()).count();
}

}  // namespace

const char* severity_name(const log_severity severity) noexcept
{
    switch (severity)
    {
        case log_severity::debug: return "debug";
        case log_severity::info: return "info";
        case log_severity::warn: return "warn";
        case log_severity::error: return "error";
    }
    return "info";
}

log_severity parse_severity(const std::string_view name) noexcept
{
    if (name == "debug")
    {
        return log_severity::debug;
    }
    if (name == "warn" || name == "warning")
    {
        return log_severity::warn;
    }
    if (name == "error")
    {
        return log_severity::error;
    }
    return log_severity::info;
}

std::string log_record_json(const log_record& record)
{
    char ts[40];
    std::snprintf(ts, sizeof(ts), "%.3f", record.ts);
    std::string line = "{\"ts\": ";
    line += ts;
    line += ", \"severity\": \"";
    line += severity_name(record.severity);
    line += "\", \"component\": \"";
    line += json_escape(record.component);
    line += "\", \"message\": \"";
    line += json_escape(record.message);
    line += "\"";
    if (!record.fields.empty())
    {
        line += ", \"fields\": {";
        bool first = true;
        for (const auto& [key, value] : record.fields)
        {
            line += first ? "\"" : ", \"";
            line += json_escape(key);
            line += "\": \"";
            line += json_escape(value);
            line += "\"";
            first = false;
        }
        line += "}";
    }
    line += "}";
    return line;
}

// ---------------------------------------------------------------- event_log

struct event_log::impl
{
    mutable std::mutex mutex;
    std::deque<log_record> ring;
    std::size_t capacity{default_capacity};
    log_severity threshold{log_severity::info};
    std::ofstream sink;
    bool stderr_echo{false};
    std::uint64_t total{0};
    std::uint64_t dropped{0};
};

event_log::event_log() : state{new impl{}}
{
    if (const char* level = std::getenv("MNT_LOG_LEVEL"); level != nullptr)
    {
        state->threshold = parse_severity(level);
    }
    if (const char* path = std::getenv("MNT_EVENT_LOG"); path != nullptr && *path != '\0')
    {
        state->sink.open(path, std::ios::app);
        // a failed open is reported on the first log attempt via stderr once,
        // not thrown: env-driven logging must never kill the process
        if (!state->sink)
        {
            std::fprintf(stderr, "eventlog: cannot open MNT_EVENT_LOG sink '%s'\n", path);
        }
    }
}

event_log::~event_log()
{
    delete state;
}

event_log& event_log::instance()
{
    static event_log the_log;
    return the_log;
}

void event_log::log(const log_severity severity, const std::string_view component,
                    const std::string_view message, std::vector<std::pair<std::string, std::string>> fields)
{
    const std::lock_guard lock{state->mutex};
    if (severity < state->threshold)
    {
        return;
    }
    log_record record{};
    record.ts = unix_now_s();
    record.severity = severity;
    record.component = std::string{component};
    record.message = std::string{message};
    record.fields = std::move(fields);

    if (state->sink.is_open() && state->sink)
    {
        state->sink << log_record_json(record) << '\n';
        if (severity >= log_severity::warn)
        {
            state->sink.flush();
        }
    }
    if (state->stderr_echo && severity >= log_severity::warn)
    {
        std::string detail;
        for (const auto& [key, value] : record.fields)
        {
            detail += " " + key + "=" + value;
        }
        std::fprintf(stderr, "[%s] %s: %s%s\n", severity_name(severity), record.component.c_str(),
                     record.message.c_str(), detail.c_str());
    }

    ++state->total;
    if (state->capacity == 0)
    {
        ++state->dropped;
        return;
    }
    while (state->ring.size() >= state->capacity)
    {
        state->ring.pop_front();
        ++state->dropped;
    }
    state->ring.push_back(std::move(record));
}

void event_log::set_min_severity(const log_severity severity)
{
    const std::lock_guard lock{state->mutex};
    state->threshold = severity;
}

log_severity event_log::min_severity() const
{
    const std::lock_guard lock{state->mutex};
    return state->threshold;
}

void event_log::set_capacity(const std::size_t capacity)
{
    const std::lock_guard lock{state->mutex};
    state->capacity = capacity;
    while (state->ring.size() > capacity)
    {
        state->ring.pop_front();
        ++state->dropped;
    }
}

void event_log::open_sink(const std::filesystem::path& path)
{
    const std::lock_guard lock{state->mutex};
    state->sink.close();
    state->sink.clear();
    state->sink.open(path, std::ios::app);
    if (!state->sink)
    {
        throw mnt_error{"eventlog: cannot open sink '" + path.string() + "' for appending"};
    }
}

void event_log::close_sink()
{
    const std::lock_guard lock{state->mutex};
    if (state->sink.is_open())
    {
        state->sink.flush();
        state->sink.close();
    }
}

void event_log::flush()
{
    const std::lock_guard lock{state->mutex};
    if (state->sink.is_open())
    {
        state->sink.flush();
    }
}

void event_log::set_stderr_echo(const bool on)
{
    const std::lock_guard lock{state->mutex};
    state->stderr_echo = on;
}

std::vector<log_record> event_log::snapshot() const
{
    const std::lock_guard lock{state->mutex};
    return {state->ring.begin(), state->ring.end()};
}

std::uint64_t event_log::total_logged() const
{
    const std::lock_guard lock{state->mutex};
    return state->total;
}

std::uint64_t event_log::overwritten() const
{
    const std::lock_guard lock{state->mutex};
    return state->dropped;
}

void event_log::clear()
{
    const std::lock_guard lock{state->mutex};
    state->ring.clear();
    state->total = 0;
    state->dropped = 0;
}

void log_event(const log_severity severity, const std::string_view component, const std::string_view message,
               std::vector<std::pair<std::string, std::string>> fields)
{
    event_log::instance().log(severity, component, message, std::move(fields));
}

}  // namespace mnt::tel
