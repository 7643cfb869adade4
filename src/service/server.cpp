#include "service/server.hpp"

#include "common/provenance.hpp"
#include "common/resilience.hpp"
#include "io/fgl_writer.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mnt::svc
{

namespace
{

const char* status_text(const int status) noexcept
{
    switch (status)
    {
        case 200: return "OK";
        case 304: return "Not Modified";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 408: return "Request Timeout";
        case 413: return "Payload Too Large";
        case 500: return "Internal Server Error";
        case 501: return "Not Implemented";
        case 503: return "Service Unavailable";
    }
    return "Status";
}

/// Server metrics are recorded unconditionally — not gated by MNT_TELEMETRY
/// — so a /metrics scrape of an otherwise-unconfigured server is still
/// informative. Registry instrument references are stable for the process
/// lifetime, which is what makes direct recording safe here.
void count_always(const std::string_view name, const std::uint64_t delta = 1)
{
    tel::registry::instance().get_counter(name).add(delta);
}

http_response error_response(const int status, const std::string& message)
{
    auto error = json_value::make_object();
    error.set("status", json_value{static_cast<std::uint64_t>(status)});
    error.set("message", json_value{message});
    auto document = json_value::make_object();
    document.set("error", std::move(error));
    return http_response{status, "application/json", document.dump(), {}};
}

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // non-Linux fallback; pair with an external SIGPIPE handler
#endif

[[nodiscard]] bool iequals(const std::string_view a, const std::string_view b) noexcept
{
    if (a.size() != b.size())
    {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        const auto la = a[i] >= 'A' && a[i] <= 'Z' ? static_cast<char>(a[i] + 32) : a[i];
        const auto lb = b[i] >= 'A' && b[i] <= 'Z' ? static_cast<char>(b[i] + 32) : b[i];
        if (la != lb)
        {
            return false;
        }
    }
    return true;
}

[[nodiscard]] std::string_view trim_ows(std::string_view text) noexcept
{
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    {
        text.remove_prefix(1);
    }
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    {
        text.remove_suffix(1);
    }
    return text;
}

/// True when the comma-separated Connection header \p value carries
/// \p token (case-insensitive).
[[nodiscard]] bool connection_header_has(const std::string_view value, const std::string_view token) noexcept
{
    std::size_t pos = 0;
    while (pos <= value.size())
    {
        const auto comma = value.find(',', pos);
        const auto part =
            trim_ows(value.substr(pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos));
        if (iequals(part, token))
        {
            return true;
        }
        if (comma == std::string_view::npos)
        {
            break;
        }
        pos = comma + 1;
    }
    return false;
}

/// RFC 7231's method registry; anything else is unrecognized and earns 501
/// rather than a route-shaped 404/405.
[[nodiscard]] bool known_http_method(const std::string& method) noexcept
{
    static constexpr const char* methods[] = {"GET",    "HEAD",    "POST",  "PUT",  "DELETE",
                                              "CONNECT", "OPTIONS", "TRACE", "PATCH"};
    return std::any_of(std::begin(methods), std::end(methods),
                       [&](const char* m) { return method == m; });
}

/// Renders the response head (+ body unless suppressed) for the wire.
/// HEAD responses keep the would-be Content-Length with no body; 304
/// responses carry neither content headers nor body (RFC 7232) but do
/// repeat the ETag.
[[nodiscard]] std::string serialize_response(const http_response& response, const bool keep_alive,
                                             const bool head_only)
{
    std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " + status_text(response.status) + "\r\n";
    if (response.status != 304)
    {
        wire += "Content-Type: " + response.content_type + "\r\n";
        wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
    }
    if (!response.etag.empty())
    {
        wire += "ETag: \"" + response.etag + "\"\r\n";
    }
    wire += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
    if (!head_only && response.status != 304)
    {
        wire += response.body;
    }
    return wire;
}

void set_nonblocking(const int fd) noexcept
{
    const auto flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
    {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

using clock_type = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(const clock_type::time_point then) noexcept
{
    return std::chrono::duration<double>(clock_type::now() - then).count();
}

}  // namespace

http_parse_result parse_http_request(const std::string_view bytes, const std::size_t max_bytes)
{
    http_parse_result result{};

    const auto header_end = bytes.find("\r\n\r\n");
    if (header_end == std::string_view::npos)
    {
        result.status = bytes.size() > max_bytes ? http_parse_status::too_large : http_parse_status::incomplete;
        return result;
    }

    // request line: METHOD SP target SP HTTP/1.x
    const auto line_end = bytes.find("\r\n");
    const auto line = bytes.substr(0, line_end);
    const auto sp1 = line.find(' ');
    const auto sp2 = line.find(' ', sp1 == std::string_view::npos ? std::string_view::npos : sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        line.substr(sp2 + 1).substr(0, 7) != "HTTP/1.")
    {
        result.status = http_parse_status::malformed;
        return result;
    }
    result.request.method = std::string{line.substr(0, sp1)};
    const auto target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const auto question = target.find('?');
    result.request.path = std::string{target.substr(0, question)};
    if (question != std::string_view::npos)
    {
        result.request.query = std::string{target.substr(question + 1)};
    }
    // HTTP/1.0 defaults to close unless the client opts into keep-alive
    const auto version_tail = line.substr(sp2 + 1);
    const bool http10 = version_tail.size() >= 8 && version_tail[7] == '0';

    // headers: Content-Length (framing), Connection (persistence),
    // If-None-Match (conditional requests)
    std::size_t content_length = 0;
    bool close_requested = false;
    bool keep_alive_requested = false;
    std::size_t pos = line_end + 2;
    while (pos < header_end)
    {
        const auto eol = bytes.find("\r\n", pos);
        const auto header = bytes.substr(pos, eol - pos);
        const auto colon = header.find(':');
        if (colon != std::string_view::npos)
        {
            const auto name = header.substr(0, colon);
            const auto value = trim_ows(header.substr(colon + 1));
            if (iequals(name, "content-length"))
            {
                const std::string text{value};
                content_length = static_cast<std::size_t>(std::strtoull(text.c_str(), nullptr, 10));
            }
            else if (iequals(name, "connection"))
            {
                close_requested = close_requested || connection_header_has(value, "close");
                keep_alive_requested = keep_alive_requested || connection_header_has(value, "keep-alive");
            }
            else if (iequals(name, "if-none-match"))
            {
                result.request.if_none_match = std::string{value};
            }
        }
        pos = eol + 2;
    }
    result.request.connection_close = close_requested || (http10 && !keep_alive_requested);

    const auto body_start = header_end + 4;
    // subtract instead of adding: body_start + content_length can wrap
    // around for a hostile Content-Length near SIZE_MAX, turning an
    // oversized request into a never-completing "incomplete" one
    if (body_start > max_bytes || content_length > max_bytes - body_start)
    {
        result.status = http_parse_status::too_large;
        return result;
    }
    if (bytes.size() - body_start < content_length)
    {
        result.status = http_parse_status::incomplete;
        return result;
    }
    result.request.body = std::string{bytes.substr(body_start, content_length)};
    result.consumed = body_start + content_length;
    result.status = http_parse_status::ok;
    return result;
}

// ----------------------------------------------------------- event-loop state

/// Per-connection state machine. A connection cycles between *reading* (a
/// partial request sits in inbuf; must complete within the request
/// deadline), *idle* (keep-alive, nothing buffered; bounded by the idle
/// timeout) and *flushing* (outbuf bytes pending; EPOLLOUT armed until
/// drained).
struct catalog_server::connection
{
    int fd{-1};
    std::string inbuf;   ///< received, not-yet-parsed bytes
    std::string outbuf;  ///< serialized responses awaiting the socket
    std::size_t outpos{0};
    clock_type::time_point last_activity{};
    clock_type::time_point read_start{};  ///< first byte of the pending request
    bool reading{false};                  ///< inbuf holds a partial request
    bool want_write{false};               ///< EPOLLOUT currently armed
    bool close_after_flush{false};
    bool peer_closed{false};
};

/// Per-thread epoll state. Each loop owns its connections outright; no
/// cross-loop locking ever touches a connection.
struct catalog_server::event_loop
{
    int epoll_fd{-1};
    int wake_fd{-1};  ///< eventfd poked by stop()
    bool accept_armed{false};
    std::uint32_t accept_backoff_ms{0};
    clock_type::time_point accept_resume_at{};
    std::unordered_map<int, connection> connections;
    bool draining{false};
    clock_type::time_point drain_deadline{};
};

// ------------------------------------------------------------ catalog_server

catalog_server::catalog_server(const query_engine& engine, server_options options) :
        // non-owning: the caller guarantees the engine outlives the server
        catalog_server{std::shared_ptr<const query_engine>{&engine, [](const query_engine*) {}},
                       std::move(options)}
{}

catalog_server::catalog_server(std::shared_ptr<const query_engine> engine, server_options options) :
        options{std::move(options)},
        current_snapshot{build_catalog_snapshot(std::move(engine), 0)}
{}

void catalog_server::attach_store(const layout_store* store) noexcept
{
    this->store = store;
}

std::shared_ptr<const catalog_snapshot> catalog_server::snapshot() const
{
    const std::scoped_lock lock{snapshot_mutex};
    return current_snapshot;
}

void catalog_server::publish(std::shared_ptr<const query_engine> engine)
{
    std::uint64_t generation = 0;
    {
        const std::scoped_lock lock{snapshot_mutex};
        generation = next_generation++;
    }
    auto snapshot = build_catalog_snapshot(std::move(engine), generation);
    {
        const std::scoped_lock lock{snapshot_mutex};
        current_snapshot = snapshot;
    }
    tel::registry::instance().get_gauge("server.snapshot_generation").set(static_cast<double>(generation));
    tel::log_event(tel::log_severity::info, "server", "snapshot published",
                   {{"generation", std::to_string(generation)},
                    {"pages", std::to_string(snapshot->pages.size())},
                    {"layouts", std::to_string(snapshot->engine->catalog().num_layouts())}});
}

std::uint64_t catalog_server::snapshot_generation() const
{
    return snapshot()->generation;
}

void catalog_server::start()
{
    if (active.load())
    {
        throw mnt_error{"server: already running"};
    }
    stopping.store(false);

    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0)
    {
        throw mnt_error{std::string{"server: socket(): "} + std::strerror(errno)};
    }
    const int enable = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &address.sin_addr) != 1)
    {
        ::close(listen_fd);
        listen_fd = -1;
        throw mnt_error{"server: invalid bind address '" + options.host + "'"};
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0)
    {
        const auto detail = std::string{std::strerror(errno)};
        ::close(listen_fd);
        listen_fd = -1;
        throw mnt_error{"server: bind(" + options.host + ":" + std::to_string(options.port) + "): " + detail};
    }
    socklen_t length = sizeof(address);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address), &length);
    bound_port = ntohs(address.sin_port);
    if (::listen(listen_fd, 256) != 0)
    {
        const auto detail = std::string{std::strerror(errno)};
        ::close(listen_fd);
        listen_fd = -1;
        throw mnt_error{std::string{"server: listen(): "} + detail};
    }
    set_nonblocking(listen_fd);

    const auto num_loops = std::max<std::size_t>(1, options.threads);
    loops.clear();
    for (std::size_t i = 0; i < num_loops; ++i)
    {
        auto loop = std::make_unique<event_loop>();
        loop->epoll_fd = ::epoll_create1(0);
        loop->wake_fd = ::eventfd(0, EFD_NONBLOCK);
        if (loop->epoll_fd < 0 || loop->wake_fd < 0)
        {
            throw mnt_error{std::string{"server: epoll/eventfd: "} + std::strerror(errno)};
        }
        epoll_event wake{};
        wake.events = EPOLLIN;
        wake.data.fd = loop->wake_fd;
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &wake);

        epoll_event accept_event{};
#ifdef EPOLLEXCLUSIVE
        accept_event.events = EPOLLIN | EPOLLEXCLUSIVE;
#else
        accept_event.events = EPOLLIN;
#endif
        accept_event.data.fd = listen_fd;
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd, &accept_event);
        loop->accept_armed = true;
        loops.push_back(std::move(loop));
    }

    active.store(true);
    open_connections.store(0);
    loop_threads.reserve(num_loops);
    for (auto& loop : loops)
    {
        loop_threads.emplace_back([this, raw = loop.get()] { loop_thread(*raw); });
    }
    tel::registry::instance().get_gauge("server.workers").set(static_cast<double>(num_loops));
    tel::log_event(tel::log_severity::info, "server", "listening",
                   {{"host", options.host},
                    {"port", std::to_string(bound_port)},
                    {"loops", std::to_string(num_loops)}});
}

void catalog_server::stop()
{
    const auto was_active = active.load();
    stopping.store(true);
    for (const auto& loop : loops)
    {
        if (loop && loop->wake_fd >= 0)
        {
            const std::uint64_t one = 1;
            [[maybe_unused]] const auto n = ::write(loop->wake_fd, &one, sizeof(one));
        }
    }
    for (auto& thread : loop_threads)
    {
        if (thread.joinable())
        {
            thread.join();
        }
    }
    loop_threads.clear();
    loops.clear();
    if (listen_fd >= 0)
    {
        ::close(listen_fd);
        listen_fd = -1;
    }
    active.store(false);
    if (was_active)
    {
        tel::log_event(tel::log_severity::info, "server", "stopped", {{"uptime_s", std::to_string(uptime_s())}});
    }
}

catalog_server::~catalog_server()
{
    stop();
}

std::uint16_t catalog_server::port() const noexcept
{
    return bound_port;
}

bool catalog_server::running() const noexcept
{
    return active.load();
}

// --------------------------------------------------------------- event loops

void catalog_server::loop_thread(event_loop& loop)
{
    epoll_event events[64];
    for (;;)
    {
        if (stopping.load() && !loop.draining)
        {
            // begin the drain: stop accepting, close idle connections, keep
            // serving connections that still owe or await bytes
            loop.draining = true;
            loop.drain_deadline = clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                                                          std::chrono::duration<double>(options.drain_timeout_s));
            if (loop.accept_armed)
            {
                ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
                loop.accept_armed = false;
            }
            std::vector<int> idle;
            for (const auto& [fd, conn] : loop.connections)
            {
                if (!conn.reading && conn.outpos >= conn.outbuf.size())
                {
                    idle.push_back(fd);
                }
            }
            for (const int fd : idle)
            {
                close_connection(loop, fd);
            }
        }
        if (loop.draining &&
            (loop.connections.empty() || clock_type::now() >= loop.drain_deadline))
        {
            break;
        }

        // re-arm accepting after an error backoff
        if (!loop.draining && !loop.accept_armed && clock_type::now() >= loop.accept_resume_at)
        {
            epoll_event accept_event{};
#ifdef EPOLLEXCLUSIVE
            accept_event.events = EPOLLIN | EPOLLEXCLUSIVE;
#else
            accept_event.events = EPOLLIN;
#endif
            accept_event.data.fd = listen_fd;
            ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, listen_fd, &accept_event);
            loop.accept_armed = true;
        }

        const int n = ::epoll_wait(loop.epoll_fd, events, 64, 50);
        for (int i = 0; i < n; ++i)
        {
            const int fd = events[i].data.fd;
            if (fd == loop.wake_fd)
            {
                std::uint64_t drained = 0;
                [[maybe_unused]] const auto r = ::read(loop.wake_fd, &drained, sizeof(drained));
                continue;
            }
            if (fd == listen_fd)
            {
                accept_ready(loop);
                continue;
            }
            const auto found = loop.connections.find(fd);
            if (found == loop.connections.end())
            {
                continue;  // closed earlier in this batch
            }
            auto& conn = found->second;
            if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && (events[i].events & EPOLLIN) == 0)
            {
                close_connection(loop, fd);
                continue;
            }
            if ((events[i].events & EPOLLIN) != 0)
            {
                connection_readable(loop, conn);
                // the handler may have closed the connection
                if (loop.connections.find(fd) == loop.connections.end())
                {
                    continue;
                }
            }
            if ((events[i].events & EPOLLOUT) != 0)
            {
                connection_writable(loop, conn);
            }
        }
        sweep_deadlines(loop);
    }

    // drain budget exhausted (or clean): close whatever remains
    std::vector<int> remaining;
    remaining.reserve(loop.connections.size());
    for (const auto& [fd, conn] : loop.connections)
    {
        remaining.push_back(fd);
    }
    for (const int fd : remaining)
    {
        close_connection(loop, fd);
    }
    ::close(loop.epoll_fd);
    ::close(loop.wake_fd);
    loop.epoll_fd = -1;
    loop.wake_fd = -1;
}

void catalog_server::accept_ready(event_loop& loop)
{
    for (;;)
    {
        if (open_connections.load() >= options.max_connections)
        {
            // fd budget: make room by shedding the oldest idle keep-alive
            // connection; with nothing idle, refuse the newcomer
            if (!shed_oldest_idle(loop))
            {
                const auto fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd >= 0)
                {
                    ::close(fd);
                    count_always("server.overload_closed");
                }
                return;
            }
        }

        int fd = -1;
        if (MNT_FAULT_FIRES("server.accept"))
        {
            errno = EMFILE;  // simulated fd exhaustion (counted site grammar)
        }
        else
        {
            fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
        }
        if (fd < 0)
        {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
            {
                loop.accept_backoff_ms = 0;
                return;
            }
            if (errno == EINTR || errno == ECONNABORTED)
            {
                continue;
            }
            // persistent failure (EMFILE/ENFILE/ENOMEM...): count it, shed
            // an idle connection to free an fd, and back off exponentially —
            // a level-triggered listen fd would otherwise spin this loop at
            // 100% CPU re-reporting the same readable event
            count_always("server.accept_errors");
            shed_oldest_idle(loop);
            loop.accept_backoff_ms =
                loop.accept_backoff_ms == 0 ? 25 : std::min<std::uint32_t>(loop.accept_backoff_ms * 2, 1000);
            loop.accept_resume_at = clock_type::now() + std::chrono::milliseconds{loop.accept_backoff_ms};
            ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
            loop.accept_armed = false;
            tel::log_event(tel::log_severity::warn, "server", "accept failed; backing off",
                           {{"errno", std::string{std::strerror(errno)}},
                            {"backoff_ms", std::to_string(loop.accept_backoff_ms)}});
            return;
        }
        loop.accept_backoff_ms = 0;
        count_always("server.connections");
        open_connections.fetch_add(1);
        tel::registry::instance().get_gauge("server.open_connections")
            .set(static_cast<double>(open_connections.load()));

        connection conn{};
        conn.fd = fd;
        conn.last_activity = clock_type::now();
        loop.connections.emplace(fd, std::move(conn));

        epoll_event event{};
        event.events = EPOLLIN;
        event.data.fd = fd;
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &event);
    }
}

bool catalog_server::shed_oldest_idle(event_loop& loop)
{
    int victim = -1;
    clock_type::time_point oldest{};
    for (const auto& [fd, conn] : loop.connections)
    {
        const bool idle = !conn.reading && conn.inbuf.empty() && conn.outpos >= conn.outbuf.size();
        if (idle && (victim < 0 || conn.last_activity < oldest))
        {
            victim = fd;
            oldest = conn.last_activity;
        }
    }
    if (victim < 0)
    {
        return false;
    }
    count_always("server.connections_shed");
    close_connection(loop, victim);
    return true;
}

void catalog_server::close_connection(event_loop& loop, const int fd)
{
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    loop.connections.erase(fd);
    open_connections.fetch_sub(1);
    tel::registry::instance().get_gauge("server.open_connections")
        .set(static_cast<double>(open_connections.load()));
}

void catalog_server::connection_readable(event_loop& loop, connection& conn)
{
    char buffer[16384];
    for (;;)
    {
        const auto n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (n > 0)
        {
            if (conn.inbuf.empty() && !conn.reading)
            {
                conn.reading = true;
                conn.read_start = clock_type::now();
            }
            conn.inbuf.append(buffer, static_cast<std::size_t>(n));
            conn.last_activity = clock_type::now();
            continue;
        }
        if (n == 0)
        {
            conn.peer_closed = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
        {
            break;
        }
        if (errno == EINTR)
        {
            continue;
        }
        close_connection(loop, conn.fd);
        return;
    }

    process_input(loop, conn);

    if (conn.peer_closed)
    {
        if (!conn.inbuf.empty() && !conn.close_after_flush)
        {
            // the peer left mid-request; answer 400 for the torn bytes
            tel::log_event(tel::log_severity::info, "server", "peer closed mid-request");
            conn.outbuf += serialize_response(error_response(400, "malformed HTTP request"), false, false);
        }
        conn.close_after_flush = true;
    }
    flush_output(loop, conn);
}

void catalog_server::connection_writable(event_loop& loop, connection& conn)
{
    flush_output(loop, conn);
}

void catalog_server::process_input(event_loop& loop, connection& conn)
{
    while (!conn.close_after_flush)
    {
        auto parsed = parse_http_request(conn.inbuf, options.max_request_bytes);
        if (parsed.status == http_parse_status::incomplete)
        {
            if (conn.inbuf.empty())
            {
                conn.reading = false;
            }
            return;
        }
        if (parsed.status == http_parse_status::malformed)
        {
            tel::log_event(tel::log_severity::info, "server", "malformed HTTP request");
            conn.outbuf += serialize_response(error_response(400, "malformed HTTP request"), false, false);
            conn.close_after_flush = true;
            return;
        }
        if (parsed.status == http_parse_status::too_large)
        {
            tel::log_event(tel::log_severity::warn, "server", "request exceeds the size limit",
                           {{"max_bytes", std::to_string(options.max_request_bytes)}});
            conn.outbuf += serialize_response(error_response(413, "request exceeds the size limit"), false, false);
            conn.close_after_flush = true;
            return;
        }

        conn.inbuf.erase(0, parsed.consumed);
        // each pipelined request gets a fresh read budget for its successor
        conn.reading = !conn.inbuf.empty();
        conn.read_start = clock_type::now();
        if (!conn.inbuf.empty())
        {
            count_always("server.pipelined_requests");
        }

        const auto deadline = res::deadline_clock::after(options.request_deadline_s);
        const auto response = handle(parsed.request, deadline);

        // 408 means framing trust is gone; errors on the request line keep
        // the connection only when the client asked for keep-alive
        const bool close_now =
            parsed.request.connection_close || stopping.load() || response.status == 408;
        const bool head_only = parsed.request.method == "HEAD";
        conn.outbuf += serialize_response(response, !close_now, head_only);
        if (close_now)
        {
            conn.close_after_flush = true;
        }
    }
}

void catalog_server::flush_output(event_loop& loop, connection& conn)
{
    while (conn.outpos < conn.outbuf.size())
    {
        const auto n = ::send(conn.fd, conn.outbuf.data() + conn.outpos, conn.outbuf.size() - conn.outpos,
                              MSG_NOSIGNAL);
        if (n > 0)
        {
            conn.outpos += static_cast<std::size_t>(n);
            conn.last_activity = clock_type::now();
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        {
            if (!conn.want_write)
            {
                conn.want_write = true;
                epoll_event event{};
                event.events = EPOLLIN | EPOLLOUT;
                event.data.fd = conn.fd;
                ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
            }
            return;
        }
        if (n < 0 && errno == EINTR)
        {
            continue;
        }
        close_connection(loop, conn.fd);
        return;
    }
    conn.outbuf.clear();
    conn.outpos = 0;
    if (conn.want_write)
    {
        conn.want_write = false;
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.fd = conn.fd;
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
    }
    if (conn.close_after_flush || conn.peer_closed)
    {
        close_connection(loop, conn.fd);
    }
}

void catalog_server::sweep_deadlines(event_loop& loop)
{
    std::vector<int> expired_reads;
    std::vector<int> expired_idle;
    for (const auto& [fd, conn] : loop.connections)
    {
        if (conn.reading && seconds_since(conn.read_start) > options.request_deadline_s)
        {
            expired_reads.push_back(fd);
        }
        else if (!conn.reading && conn.outpos >= conn.outbuf.size() &&
                 seconds_since(conn.last_activity) > options.idle_timeout_s)
        {
            expired_idle.push_back(fd);
        }
    }
    for (const int fd : expired_reads)
    {
        auto& conn = loop.connections.at(fd);
        count_always("server.read_timeouts");
        tel::log_event(tel::log_severity::warn, "server", "request read timed out",
                       {{"deadline_s", std::to_string(options.request_deadline_s)}});
        conn.outbuf +=
            serialize_response(error_response(408, "request was not received within the deadline"), false, false);
        conn.close_after_flush = true;
        conn.reading = false;
        conn.inbuf.clear();
        flush_output(loop, conn);
    }
    for (const int fd : expired_idle)
    {
        count_always("server.idle_closed");
        close_connection(loop, fd);
    }
}

// ------------------------------------------------------------------- routing

http_response catalog_server::handle(const http_request& request, const res::deadline_clock& deadline)
{
    const tel::span request_span{"server/request", request.method + ' ' + request.path};
    const tel::stopwatch watch;
    count_always("server.requests");

    http_response response;
    try
    {
        response = route(request, deadline);
    }
    catch (const res::deadline_exceeded& e)
    {
        response = error_response(408, e.what());
    }
    catch (const mnt_error& e)
    {
        response = error_response(400, e.what());
    }
    catch (const std::exception& e)
    {
        tel::log_event(tel::log_severity::error, "server", "unhandled exception in request handler",
                       {{"path", request.path}, {"what", e.what()}});
        response = error_response(500, e.what());
    }

    // conditional requests: a matching strong validator turns the response
    // into a bodiless 304 — the repeat visitor costs ~zero bytes
    if ((request.method == "GET" || request.method == "HEAD") && response.status == 200 &&
        !response.etag.empty() && etag_matches(request.if_none_match, response.etag))
    {
        count_always("server.not_modified");
        http_response not_modified{304, response.content_type, {}, response.etag};
        response = std::move(not_modified);
    }

    const auto elapsed = watch.seconds();
    auto& reg = tel::registry::instance();
    reg.get_counter("server.responses[code=" + std::to_string(response.status) + "]").add();
    reg.get_histogram("server.request_s").record(elapsed);
    reg.get_histogram("server.request_s[route=" + route_key(request.path) + "]").record(elapsed);
    return response;
}

http_response catalog_server::route(const http_request& request, const res::deadline_clock& deadline)
{
    deadline.throw_if_expired("server/route");

    if (!known_http_method(request.method))
    {
        return error_response(501, "method not implemented: " + request.method);
    }
    // HEAD is GET with the body suppressed at the socket layer; everything
    // else (headers, ETag, cache semantics) is identical by construction
    const bool head = request.method == "HEAD";
    const std::string& method = head ? std::string{"GET"} : request.method;
    if (method != "GET" && method != "POST")
    {
        return error_response(405, "method not allowed: " + request.method);
    }

    if (request.path == "/healthz")
    {
        return healthz_response();
    }
    if (request.path == "/metrics")
    {
        return http_response{200, "text/plain; version=0.0.4; charset=utf-8", tel::prometheus_text(), {}};
    }
    if (request.path == "/statz")
    {
        return statz_response();
    }
    if (request.path == "/benchmarks")
    {
        const auto snap = snapshot();
        count_always("server.snapshot_hits");
        return http_response{200, "application/json", snap->benchmarks.body, snap->benchmarks.etag};
    }
    if (request.path == "/layouts")
    {
        const auto query = method == "POST" ? page_query::from_json(json_value::parse(request.body)) :
                                              page_query::from_query_string(request.query);
        deadline.throw_if_expired("server/layouts");
        return page_response(query);
    }
    if (request.path == "/facets")
    {
        auto query = page_query::from_query_string(request.query);
        query.limit = 0;
        query.include_facets = true;
        deadline.throw_if_expired("server/facets");
        return page_response(query);
    }
    if (request.path == "/best")
    {
        auto query = page_query::from_query_string(request.query);
        query.filter.best_only = true;
        deadline.throw_if_expired("server/best");
        return page_response(query);
    }
    if (request.path.rfind("/download/", 0) == 0)
    {
        if (method != "GET")
        {
            return error_response(405, "downloads are GET-only");
        }
        // ids are 32 lowercase hex digits; reject anything else up front so
        // hostile ids (path traversal, case variants) never reach the store
        // or the filesystem
        const auto id = request.path.substr(10);
        if (!is_valid_blob_id(id))
        {
            return error_response(404, "no layout with id '" + id + "'");
        }
        return download_response(id);
    }
    return error_response(404, "no such route: " + request.path);
}

http_response catalog_server::page_response(const page_query& query)
{
    const auto key = query.cache_key();
    const auto snap = snapshot();

    // hot path: the default pages were rendered when the snapshot was built
    if (const auto found = snap->pages.find(key); found != snap->pages.cend())
    {
        count_always("server.snapshot_hits");
        return http_response{200, "application/json", found->second.body, found->second.etag};
    }
    // every other page is rendered by the snapshot's engine. The
    // server.cache_misses counter counts these renders, i.e. the pages the
    // snapshot does not hold; its name is kept for the readers that
    // attribute engine time by it
    count_always("server.cache_misses");
    auto body = page_json_string(snap->engine->run(query));
    auto etag = make_etag(body);
    return http_response{200, "application/json", std::move(body), std::move(etag)};
}

http_response catalog_server::healthz_response()
{
    const auto snap = snapshot();
    auto document = json_value::make_object();
    document.set("status", json_value{std::string{"ok"}});
    document.set("layouts", json_value{static_cast<std::uint64_t>(snap->engine->catalog().num_layouts())});
    document.set("uptime_s", json_value{uptime_s()});
    document.set("version", json_value{prov::build_info().version});
    return http_response{200, "application/json", document.dump(), {}};
}

http_response catalog_server::statz_response()
{
    auto& reg = tel::registry::instance();
    const auto& info = prov::build_info();
    const auto snap = snapshot();

    auto document = json_value::make_object();
    document.set("uptime_s", json_value{uptime_s()});

    auto build = json_value::make_object();
    build.set("version", json_value{info.version});
    build.set("compiler", json_value{info.compiler});
    build.set("build_type", json_value{info.build_type});
    build.set("cxx_standard", json_value{info.cxx_standard});
    document.set("build", std::move(build));

    auto srv = json_value::make_object();
    srv.set("requests", json_value{reg.get_counter("server.requests").value()});
    srv.set("connections", json_value{reg.get_counter("server.connections").value()});
    srv.set("open_connections", json_value{static_cast<std::uint64_t>(open_connections.load())});
    srv.set("read_timeouts", json_value{reg.get_counter("server.read_timeouts").value()});
    srv.set("accept_errors", json_value{reg.get_counter("server.accept_errors").value()});
    srv.set("not_modified", json_value{reg.get_counter("server.not_modified").value()});
    srv.set("workers", json_value{static_cast<std::uint64_t>(loops.size())});
    srv.set("snapshot_generation", json_value{snap->generation});
    srv.set("snapshot_pages", json_value{static_cast<std::uint64_t>(snap->pages.size())});
    document.set("server", std::move(srv));

    // per-route p50/p95/p99 estimated from the log-bucket latency histograms
    auto latency = json_value::make_object();
    for (const auto& h : reg.histograms())
    {
        const auto identity = tel::parse_instrument_name(h.name);
        if (identity.base != "server.request_s" || identity.labels.empty())
        {
            continue;
        }
        auto entry = json_value::make_object();
        entry.set("count", json_value{h.count});
        entry.set("p50_s", json_value{tel::histogram_quantile(h, 0.50)});
        entry.set("p95_s", json_value{tel::histogram_quantile(h, 0.95)});
        entry.set("p99_s", json_value{tel::histogram_quantile(h, 0.99)});
        latency.set(identity.labels.front().second, std::move(entry));
    }
    document.set("request_latency_s", std::move(latency));

    if (store != nullptr)
    {
        auto st = json_value::make_object();
        st.set("networks", json_value{static_cast<std::uint64_t>(store->num_networks())});
        st.set("layouts", json_value{static_cast<std::uint64_t>(store->num_layouts())});
        st.set("failures", json_value{static_cast<std::uint64_t>(store->num_failures())});
        st.set("open_issues", json_value{static_cast<std::uint64_t>(store->open_issues().size())});
        document.set("store", std::move(st));
    }

    auto& log = tel::event_log::instance();
    auto events = json_value::make_object();
    events.set("total", json_value{log.total_logged()});
    events.set("overwritten", json_value{log.overwritten()});
    document.set("eventlog", std::move(events));

    auto trace = json_value::make_object();
    trace.set("recording", json_value{tel::trace_recording()});
    trace.set("events", json_value{static_cast<std::uint64_t>(reg.trace_events().size())});
    trace.set("dropped", json_value{reg.dropped_trace_events()});
    document.set("trace", std::move(trace));

    return http_response{200, "application/json", document.dump(), {}};
}

double catalog_server::uptime_s() const noexcept
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at).count();
}

std::string catalog_server::route_key(const std::string& path)
{
    static constexpr const char* known[] = {"/healthz", "/metrics", "/statz",  "/benchmarks",
                                            "/layouts", "/facets",  "/best"};
    for (const char* route : known)
    {
        if (path == route)
        {
            return route;
        }
    }
    if (path.rfind("/download/", 0) == 0)
    {
        return "/download";
    }
    return "other";
}

bool catalog_server::is_valid_blob_id(const std::string& id) noexcept
{
    if (id.size() != 32)
    {
        return false;
    }
    return std::all_of(id.cbegin(), id.cend(), [](const unsigned char ch)
                       { return (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'); });
}

http_response catalog_server::download_response(const std::string& id)
{
    // a blob id IS its content hash, so it doubles as the strong ETag
    if (store != nullptr)
    {
        if (const auto path = store->blob_path(id); path.has_value())
        {
            count_always("server.downloads");
            return http_response{200, "application/xml", read_file(*path), id};
        }
    }
    const auto snap = snapshot();
    if (const auto index = snap->engine->index_of(id); index.has_value())
    {
        tel::count("server.downloads");
        return http_response{200, "application/xml",
                             io::write_fgl_string(snap->engine->catalog().layouts()[*index].layout), id};
    }
    return error_response(404, "no layout with id '" + id + "'");
}

}  // namespace mnt::svc
