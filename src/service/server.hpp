#pragma once

/// \file server.hpp
/// \brief Event-driven HTTP/1.1 catalog server over POSIX sockets — the
///        serving half of the MNT Bench platform. A small set of epoll
///        event loops drives non-blocking keep-alive connections through
///        per-connection state machines, answers the website's Figure 1
///        queries from immutable pre-rendered snapshots (falling back to
///        the \ref query_engine), and streams stored .fgl layouts by
///        content hash.
///
/// Endpoints (all responses are JSON unless noted):
///
///     GET  /healthz           liveness probe (status, layouts, uptime, version)
///     GET  /metrics           Prometheus text exposition of the telemetry
///                             registry (text/plain), incl. per-route request
///                             latency histograms
///     GET  /statz             operational snapshot: uptime, build provenance,
///                             request counts, per-route latency quantiles,
///                             store stats, event-log counters
///     GET  /benchmarks        benchmark sets and functions with layout counts
///     GET  /layouts?...       facet query → result page (see query.hpp for
///                             the query-string keys and the page format)
///     POST /layouts           same, query as a JSON body
///     GET  /facets?...        facet histograms only (no rows)
///     GET  /best?...          area-minimal layout per function (best_only
///                             forced on)
///     GET  /download/<id>     the stored blob: a layout's .fgl
///                             (application/xml) or a network's Verilog
///                             (text/plain; charset=utf-8)
///
/// HEAD is answered for every GET route with identical headers (including
/// Content-Length and ETag) and an empty body; unknown methods get 501,
/// known-but-unsupported ones 405.
///
/// Design constraints:
///
/// - **Event-driven I/O.** Each of server_options::threads event loops owns
///   an epoll set (level-triggered) of non-blocking sockets. Connections
///   are HTTP/1.1 keep-alive with pipelining: requests are parsed out of
///   the connection's input buffer one after another and answered in
///   order; responses queue in an output buffer flushed as the socket
///   allows (EPOLLOUT only while a flush is pending).
/// - **Read path is shared-immutable.** The current \ref catalog_snapshot
///   (engine + pre-rendered hot JSON + ETags) is an immutable object
///   swapped atomically by \ref publish; handlers copy one shared_ptr and
///   never observe a half-updated catalog. A page the snapshot does not
///   hold is rendered by the snapshot's engine on every request; nothing
///   but the snapshot pointer and the counters is shared and mutable.
/// - **Conditional requests.** Every catalog JSON body and every download
///   carries a strong content-hash ETag; `If-None-Match` turns a repeat
///   visit into a 304 with no body.
/// - **Bounded work per connection.** Request size is capped
///   (server_options::max_request_bytes); a partially read request must
///   complete within request_deadline_s (slow-loris gets 408, folded into
///   the PR 2 \ref mnt::res::deadline_clock taxonomy), and an idle
///   keep-alive connection is closed after idle_timeout_s. Persistent
///   accept failures (EMFILE/ENFILE) back off exponentially instead of
///   spinning, shed the oldest idle connection, and are counted in
///   `server.accept_errors`.
/// - **Graceful shutdown.** stop() stops accepting, closes idle keep-alive
///   connections, drains in-flight requests and pending writes for up to
///   drain_timeout_s, then joins every event loop.

#include "core/filters.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/store.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mnt::svc
{

/// Server configuration.
struct server_options
{
    /// Bind address; the loopback default keeps the benchmark service
    /// private unless explicitly exposed.
    std::string host{"127.0.0.1"};

    /// TCP port; 0 picks an ephemeral port (query \ref catalog_server::port
    /// after start()).
    std::uint16_t port{0};

    /// Event-loop threads (each owns an epoll set of connections).
    std::size_t threads{4};

    /// Per-request deadline in seconds (read + handle); expiry yields 408.
    double request_deadline_s{10.0};

    /// Keep-alive connections idle (no partial request, nothing to write)
    /// longer than this are closed.
    double idle_timeout_s{15.0};

    /// Graceful-shutdown drain budget: stop() waits this long for in-flight
    /// requests and pending writes before closing the stragglers.
    double drain_timeout_s{5.0};

    /// Soft cap on concurrently open connections across all loops. At the
    /// cap, the oldest idle keep-alive connection is shed to make room; if
    /// none is idle, new connections are refused.
    std::size_t max_connections{1024};

    /// Hard cap on the request head + body size.
    std::size_t max_request_bytes{1U << 20U};
};

/// A parsed request, decoupled from the socket so the routing logic is
/// testable without network I/O (see \ref catalog_server::handle).
struct http_request
{
    std::string method;  ///< "GET", "POST", ...
    std::string path;    ///< decoded path, e.g. "/layouts"
    std::string query;   ///< raw query string (no leading '?')
    std::string body;
    /// True when the client asked for the connection to close after this
    /// response (`Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`).
    bool connection_close{false};
    /// Raw `If-None-Match` header value ("" when absent).
    std::string if_none_match{};
};

/// A response ready for serialization.
struct http_response
{
    int status{200};
    std::string content_type{"application/json"};
    std::string body;
    /// Unquoted strong ETag; empty = no ETag header. The wire format quotes
    /// it. For HEAD and 304 responses the body is suppressed on the wire
    /// but kept here so Content-Length and validators stay correct.
    std::string etag;
};

/// Outcome of \ref parse_http_request.
enum class http_parse_status : std::uint8_t
{
    ok,          ///< a complete request was parsed
    incomplete,  ///< valid so far, but more bytes are needed
    malformed,   ///< the bytes can never become a valid request
    too_large    ///< head or declared body exceeds the size cap
};

/// Result of parsing one request from a byte prefix.
struct http_parse_result
{
    http_parse_status status{http_parse_status::incomplete};

    /// The parsed request; only meaningful when status == ok.
    http_request request;

    /// Bytes consumed by the request (head + declared body) when status ==
    /// ok; 0 otherwise. Pipelined requests parse from the remaining suffix.
    std::size_t consumed{0};
};

/// Parses an HTTP/1.1 request (request line, headers — of which
/// Content-Length, Connection and If-None-Match are interpreted — and body)
/// from \p bytes. Pure function of its inputs: the event loop feeds it
/// growing prefixes until the status leaves `incomplete`, then strips
/// `consumed` bytes and parses the next pipelined request; the fuzzer and
/// property tests drive it with arbitrary byte-streams directly. Never
/// throws; any input yields one of the four statuses.
[[nodiscard]] http_parse_result parse_http_request(std::string_view bytes, std::size_t max_bytes);

/// The catalog server. The engine (and the catalog it references) must
/// outlive the server and stay unmodified while any snapshot built from it
/// is current or held by an in-flight request; passing an owning
/// shared_ptr makes that automatic.
class catalog_server
{
public:
    /// Non-owning variant: \p engine must outlive the server.
    explicit catalog_server(const query_engine& engine, server_options options = {});

    /// Owning variant: the initial snapshot holds \p engine alive.
    explicit catalog_server(std::shared_ptr<const query_engine> engine, server_options options = {});

    /// Serve /download/<id> from \p store's blobs instead of re-serializing
    /// layouts in memory. The store must outlive the server.
    void attach_store(const layout_store* store) noexcept;

    /// Binds, listens and launches the event loops.
    ///
    /// \throws mnt::mnt_error when the socket cannot be bound
    void start();

    /// Graceful shutdown: stops accepting, closes idle connections, drains
    /// in-flight requests and pending writes (up to
    /// server_options::drain_timeout_s), joins every event loop. Idempotent;
    /// also invoked by the destructor.
    void stop();

    ~catalog_server();

    catalog_server(const catalog_server&) = delete;
    catalog_server& operator=(const catalog_server&) = delete;

    /// Actual bound port (resolves port 0 after start()).
    [[nodiscard]] std::uint16_t port() const noexcept;

    [[nodiscard]] bool running() const noexcept;

    /// Atomically replaces the serving snapshot with one freshly built from
    /// \p engine — the regeneration hook: after the store is repopulated
    /// (e.g. a `--resume` run), a fresh engine published here makes every
    /// subsequent response reflect the new content, with new ETags. A
    /// request that copied the old snapshot before the swap finishes against
    /// it; nothing rendered from it outlives that request. Safe to call
    /// while serving.
    void publish(std::shared_ptr<const query_engine> engine);

    /// Generation of the currently served snapshot (0 = initial).
    [[nodiscard]] std::uint64_t snapshot_generation() const;

    /// Routes one request — the full handler minus the socket layer, used
    /// directly by tests. \p deadline bounds query execution; expiry yields
    /// a 408 response. For HEAD requests the returned body is the would-be
    /// GET body (the socket layer suppresses it on the wire but keeps
    /// Content-Length); conditional requests that match yield 304.
    [[nodiscard]] http_response handle(const http_request& request,
                                       const res::deadline_clock& deadline = res::deadline_clock::unbounded());

private:
    struct connection;  ///< per-connection state machine (server.cpp)
    struct event_loop;  ///< per-thread epoll state (server.cpp)

    void loop_thread(event_loop& loop);
    void accept_ready(event_loop& loop);
    void connection_readable(event_loop& loop, connection& conn);
    void connection_writable(event_loop& loop, connection& conn);
    void process_input(connection& conn);
    void flush_output(event_loop& loop, connection& conn);
    void sweep_deadlines(event_loop& loop);
    void close_connection(event_loop& loop, int fd);
    bool shed_oldest_idle(event_loop& loop);

    [[nodiscard]] std::shared_ptr<const catalog_snapshot> snapshot() const;

    [[nodiscard]] http_response route(const http_request& request, const res::deadline_clock& deadline);
    [[nodiscard]] http_response page_response(const page_query& query);
    [[nodiscard]] http_response download_response(const std::string& id);
    [[nodiscard]] http_response healthz_response();
    [[nodiscard]] http_response statz_response();

    /// Seconds since this server object was constructed.
    [[nodiscard]] double uptime_s() const noexcept;

    /// Bounded-cardinality route label for the per-route latency histograms:
    /// known routes verbatim, every /download/<id> collapsed to "/download",
    /// anything else to "other" — a hostile client scanning random paths
    /// must not mint unbounded metric series.
    [[nodiscard]] static std::string route_key(const std::string& path);

    /// True iff \p id is exactly 32 lowercase hex digits — the only id shape
    /// \ref layout_store and \ref query_engine ever mint.
    [[nodiscard]] static bool is_valid_blob_id(const std::string& id) noexcept;

    server_options options;
    const layout_store* store{nullptr};
    const std::chrono::steady_clock::time_point started_at{std::chrono::steady_clock::now()};

    mutable std::mutex snapshot_mutex;
    std::shared_ptr<const catalog_snapshot> current_snapshot;
    std::uint64_t next_generation{1};

    int listen_fd{-1};
    std::uint16_t bound_port{0};
    std::atomic<bool> stopping{false};
    std::atomic<bool> active{false};
    std::atomic<std::size_t> open_connections{0};

    std::vector<std::unique_ptr<event_loop>> loops;
    std::vector<std::thread> loop_threads;
};

}  // namespace mnt::svc
