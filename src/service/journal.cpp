#include "service/journal.hpp"

#include "common/read_file.hpp"
#include "common/resilience.hpp"
#include "common/types.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/telemetry.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace mnt::svc
{

namespace
{

double wall_now_s() noexcept
{
    return std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch()).count();
}

/// The crash-recovery property suite plants `journal.kill_before=N` /
/// `journal.kill_after=N` to SIGKILL the process at exact durability
/// boundaries. SIGKILL (not abort/exit) so no destructor, flush, or atexit
/// handler can tidy up — resume must cope with the rawest possible state.
void maybe_kill(const char* site) noexcept
{
    if (MNT_FAULT_FIRES(site))
    {
        ::kill(::getpid(), SIGKILL);
    }
}

}  // namespace

run_journal::run_journal(const std::filesystem::path& path) : journal_path{path}
{
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
    {
        throw mnt_error{"cannot open run journal '" + path.string() + "': " + std::strerror(errno)};
    }
}

run_journal::~run_journal()
{
    if (fd >= 0)
    {
        ::close(fd);
    }
}

void run_journal::append(json_value record)
{
    MNT_SPAN("journal/append");
    record.set("ts", json_value{wall_now_s()});
    auto line = record.dump();
    line.push_back('\n');

    const std::lock_guard<std::mutex> lock{mutex};
    maybe_kill("journal.kill_before");
    std::size_t offset = 0;
    while (offset < line.size())
    {
        const auto n = ::write(fd, line.data() + offset, line.size() - offset);
        if (n < 0)
        {
            if (errno == EINTR)
            {
                continue;
            }
            throw mnt_error{"journal append failed: " + std::string{std::strerror(errno)}};
        }
        offset += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
    {
        throw mnt_error{"journal fsync failed: " + std::string{std::strerror(errno)}};
    }
    maybe_kill("journal.kill_after");
}

void run_journal::run_start(const std::uint64_t jobs, const std::string& config)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"run_start"});
    record.set("jobs", json_value{jobs});
    record.set("config", json_value{config});
    append(std::move(record));
}

void run_journal::job_start(const std::string& job)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"job_start"});
    record.set("job", json_value{job});
    append(std::move(record));
}

void run_journal::job_done(const std::string& job, const std::uint64_t layouts, const std::uint64_t failures,
                           const std::uint64_t completed, const std::vector<std::string>& results)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"job_done"});
    record.set("job", json_value{job});
    record.set("layouts", json_value{layouts});
    record.set("failures", json_value{failures});
    record.set("completed", json_value{completed});
    auto ids = json_value::make_array();
    for (const auto& id : results)
    {
        ids.push_back(json_value{id});
    }
    record.set("results", std::move(ids));
    append(std::move(record));
}

void run_journal::job_crashed(const std::string& job, const std::string& state, const int signal,
                              const int exit_code, const std::string& detail)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"job_crashed"});
    record.set("job", json_value{job});
    record.set("state", json_value{state});
    record.set("signal", json_value{signal});
    record.set("exit_code", json_value{exit_code});
    record.set("detail", json_value{detail});
    append(std::move(record));
}

void run_journal::checkpoint(const std::string& reason)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"checkpoint"});
    record.set("reason", json_value{reason});
    append(std::move(record));
}

void run_journal::run_end(const std::uint64_t jobs_run, const std::uint64_t jobs_crashed)
{
    auto record = json_value::make_object();
    record.set("event", json_value{"run_end"});
    record.set("jobs_run", json_value{jobs_run});
    record.set("jobs_crashed", json_value{jobs_crashed});
    append(std::move(record));
}

journal_replay journal_replay::replay(const std::filesystem::path& path)
{
    journal_replay replay{};
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
    {
        return replay;  // no journal: nothing to resume
    }
    const auto text = read_file(path);

    // split into lines ourselves so a torn final line (no trailing newline,
    // or garbage after the last fsync'd record) is identifiable as such
    std::size_t begin = 0;
    std::vector<std::pair<std::string_view, bool>> lines;  // text, newline-terminated
    while (begin < text.size())
    {
        const auto end = text.find('\n', begin);
        if (end == std::string::npos)
        {
            lines.emplace_back(std::string_view{text}.substr(begin), false);
            break;
        }
        lines.emplace_back(std::string_view{text}.substr(begin, end - begin), true);
        begin = end + 1;
    }

    for (std::size_t i = 0; i < lines.size(); ++i)
    {
        const auto [line, terminated] = lines[i];
        const bool last = i + 1 == lines.size();
        if (line.empty())
        {
            continue;
        }
        json_value record;
        try
        {
            record = json_value::parse(line);
            if (!record.is_object())
            {
                throw mnt_error{"journal record is not an object"};
            }
        }
        catch (const std::exception& e)
        {
            if (last && !terminated)
            {
                // expected kill artifact: the final append was torn mid-write
                break;
            }
            ++replay.malformed_lines;
            tel::log_event(tel::log_severity::warn, "journal", "skipping malformed journal record",
                           {{"path", path.string()}, {"line", std::to_string(i + 1)}, {"error", e.what()}});
            continue;
        }

        const auto* event = record.find("event");
        if (event == nullptr || !event->is_string())
        {
            ++replay.malformed_lines;
            continue;
        }
        const auto& kind = event->as_string();
        ++replay.lines;
        replay.interrupted = kind != "run_end";
        try
        {
            if (kind == "run_start")
            {
                if (const auto* config = record.find("config"); config != nullptr && config->is_string())
                {
                    replay.config = config->as_string();
                }
            }
            else if (kind == "job_start")
            {
                replay.in_flight.insert(record.at("job").as_string());
            }
            else if (kind == "job_done")
            {
                const auto& job = record.at("job").as_string();
                replay.in_flight.erase(job);
                replay.crashed.erase(job);
                replay.done.insert(job);
            }
            else if (kind == "job_crashed")
            {
                const auto& job = record.at("job").as_string();
                replay.in_flight.erase(job);
                replay.crashed.insert(job);
            }
            // checkpoint / run_end / unknown future events carry no job state
        }
        catch (const std::exception& e)
        {
            ++replay.malformed_lines;
            tel::log_event(tel::log_severity::warn, "journal", "journal record missing required member",
                           {{"path", path.string()}, {"event", kind}, {"error", e.what()}});
        }
    }
    return replay;
}

}  // namespace mnt::svc
