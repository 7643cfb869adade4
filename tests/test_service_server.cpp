#include "service/server.hpp"

#include "benchmarks/functions.hpp"
#include "common/resilience.hpp"
#include "core/filters.hpp"
#include "io/fgl_writer.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/ortho.hpp"
#include "service/json.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cctype>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace mnt;
using namespace mnt::svc;

namespace
{

struct client_response
{
    int status{0};
    std::string headers;
    std::string body;

    /// Value of header \p name ("" when absent); \p name must match the
    /// server's canonical casing.
    [[nodiscard]] std::string header(const std::string& name) const
    {
        const auto key = "\r\n" + name + ": ";
        const auto at = headers.find(key);
        if (at == std::string::npos)
        {
            return {};
        }
        const auto begin = at + key.size();
        return headers.substr(begin, headers.find("\r\n", begin) - begin);
    }
};

/// A persistent loopback HTTP/1.1 client. Responses are framed by
/// Content-Length (absent = no body, e.g. 304), so several exchanges can
/// share one keep-alive connection; pipelining is just send_raw() twice
/// before the first read_response().
class keepalive_client
{
public:
    explicit keepalive_client(const std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
    }

    ~keepalive_client()
    {
        if (fd >= 0)
        {
            ::close(fd);
        }
    }

    keepalive_client(const keepalive_client&) = delete;
    keepalive_client& operator=(const keepalive_client&) = delete;

    void send_raw(const std::string& bytes) const
    {
        std::size_t sent = 0;
        while (sent < bytes.size())
        {
            const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
            {
                break;
            }
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Reads exactly one response off the connection.
    [[nodiscard]] client_response read_response()
    {
        client_response response{};
        const auto header_end = fill_until("\r\n\r\n");
        if (header_end == std::string::npos)
        {
            return response;
        }
        response.headers = buffered.substr(0, header_end);
        buffered.erase(0, header_end + 4);
        if (response.headers.size() > 12)
        {
            response.status = std::stoi(response.headers.substr(9, 3));
        }

        std::size_t content_length = 0;
        const auto key = response.headers.find("Content-Length: ");
        if (key != std::string::npos)
        {
            content_length = std::stoul(response.headers.substr(key + 16));
        }
        while (buffered.size() < content_length)
        {
            if (!fill_more())
            {
                break;
            }
        }
        response.body = buffered.substr(0, content_length);
        buffered.erase(0, content_length);
        return response;
    }

    /// True when the server has closed its end (a clean EOF on recv).
    [[nodiscard]] bool server_closed() const
    {
        char byte = 0;
        const auto n = ::recv(fd, &byte, 1, MSG_PEEK);
        return n == 0;
    }

private:
    [[nodiscard]] std::size_t fill_until(const std::string& marker)
    {
        for (;;)
        {
            const auto at = buffered.find(marker);
            if (at != std::string::npos)
            {
                return at;
            }
            if (!fill_more())
            {
                return std::string::npos;
            }
        }
    }

    [[nodiscard]] bool fill_more()
    {
        char buffer[4096];
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
        {
            return false;
        }
        buffered.append(buffer, static_cast<std::size_t>(n));
        return true;
    }

    int fd{-1};
    std::string buffered;
};

/// One-shot exchange: sends `Connection: close` semantics are the caller's
/// job (use the request builders below); reads until the server closes.
client_response http_exchange(const std::uint16_t port, const std::string& request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);

    std::size_t sent = 0;
    while (sent < request.size())
    {
        // MSG_NOSIGNAL: if the server hits its read deadline and closes the
        // connection mid-send (it will under heavy ctest load), the client must
        // see EPIPE and break, not die from a process-wide SIGPIPE
        const auto n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
        {
            break;
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buffer[4096];
    for (;;)
    {
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
        {
            break;
        }
        raw.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);

    client_response response{};
    const auto header_end = raw.find("\r\n\r\n");
    if (header_end == std::string::npos)
    {
        return response;
    }
    response.headers = raw.substr(0, header_end);
    response.body = raw.substr(header_end + 4);
    // "HTTP/1.1 NNN ..."
    if (response.headers.size() > 12)
    {
        response.status = std::stoi(response.headers.substr(9, 3));
    }
    return response;
}

std::string request_line(const std::string& method, const std::string& target, const bool close,
                         const std::string& extra_headers = {}, const std::string& body = {})
{
    std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty())
    {
        request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += extra_headers;
    if (close)
    {
        request += "Connection: close\r\n";
    }
    return request + "\r\n" + body;
}

std::string get_request(const std::string& target)
{
    return request_line("GET", target, true);
}

std::string post_request(const std::string& target, const std::string& body)
{
    return request_line("POST", target, true, {}, body);
}

std::string keepalive_get(const std::string& target, const std::string& extra_headers = {})
{
    return request_line("GET", target, false, extra_headers);
}

/// A tiny real catalog: two layouts of 2:1 MUX (cartesian + hexagonal).
class server_fixture : public ::testing::Test
{
protected:
    void SetUp() override
    {
        const auto network = bm::mux21();
        catalog.add_network("Trindade16", "2:1 MUX", network);

        const auto cartesian = pd::ortho(network);
        cat::layout_record qca{};
        qca.benchmark_set = "Trindade16";
        qca.benchmark_name = "2:1 MUX";
        qca.library = cat::gate_library_kind::qca_one;
        qca.clocking = cartesian.clocking().name();
        qca.algorithm = "ortho";
        qca.runtime = 0.1;
        qca.layout = cartesian;
        catalog.add_layout(qca);

        cat::layout_record hex{};
        hex.benchmark_set = "Trindade16";
        hex.benchmark_name = "2:1 MUX";
        hex.library = cat::gate_library_kind::bestagon;
        hex.algorithm = "ortho";
        hex.optimizations = {"45°"};
        hex.runtime = 0.2;
        hex.layout = pd::hexagonalization(cartesian);
        hex.clocking = hex.layout.clocking().name();
        catalog.add_layout(hex);

        engine = std::make_unique<query_engine>(catalog);
    }

    cat::catalog catalog;
    std::unique_ptr<query_engine> engine;
};

}  // namespace

// --------------------------------------------------------- socketless routes

TEST_F(server_fixture, HandleRoutesWithoutSockets)
{
    catalog_server server{*engine};

    const auto health = server.handle({"GET", "/healthz", "", ""});
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(json_value::parse(health.body).at("layouts").as_u64(), 2u);

    const auto layouts = server.handle({"GET", "/layouts", "", ""});
    EXPECT_EQ(layouts.status, 200);
    EXPECT_EQ(layouts.body, page_json_string(engine->run(page_query{})));
    EXPECT_EQ(layouts.etag, make_etag(layouts.body));

    const auto not_found = server.handle({"GET", "/nope", "", ""});
    EXPECT_EQ(not_found.status, 404);
    const auto bad_method = server.handle({"PUT", "/layouts", "", ""});
    EXPECT_EQ(bad_method.status, 405);
    const auto unknown_method = server.handle({"BREW", "/layouts", "", ""});
    EXPECT_EQ(unknown_method.status, 501);
    const auto bad_query = server.handle({"GET", "/layouts", "library=cmos", ""});
    EXPECT_EQ(bad_query.status, 400);
    EXPECT_NE(json_value::parse(bad_query.body).at("error").at("message").as_string(), "");
    EXPECT_EQ(server.handle({"GET", "/layouts", "offset=-1", ""}).status, 400);
}

TEST_F(server_fixture, HandleHonorsExpiredDeadline)
{
    catalog_server server{*engine};
    const auto response = server.handle({"GET", "/layouts", "", ""}, res::deadline_clock::after(0.0));
    EXPECT_EQ(response.status, 408);
}

TEST_F(server_fixture, HandleAnswersConditionalRequestsWith304)
{
    catalog_server server{*engine};

    const auto first = server.handle({"GET", "/benchmarks", "", ""});
    ASSERT_EQ(first.status, 200);
    ASSERT_FALSE(first.etag.empty());
    EXPECT_EQ(first.body, render_benchmarks_json(*engine));

    http_request revisit{"GET", "/benchmarks", "", ""};
    revisit.if_none_match = "\"" + first.etag + "\"";
    const auto second = server.handle(revisit);
    EXPECT_EQ(second.status, 304);
    EXPECT_EQ(second.etag, first.etag);
    EXPECT_TRUE(second.body.empty());

    // a non-matching validator serves the full body again
    revisit.if_none_match = "\"0123456789abcdef0123456789abcdef\"";
    EXPECT_EQ(server.handle(revisit).status, 200);
    // the wildcard matches any representation
    revisit.if_none_match = "*";
    EXPECT_EQ(server.handle(revisit).status, 304);
}

TEST_F(server_fixture, PublishSwapsSnapshot)
{
    catalog_server server{*engine};
    EXPECT_EQ(server.snapshot_generation(), 0u);

    const auto before = server.handle({"GET", "/benchmarks", "", ""});
    ASSERT_EQ(before.status, 200);

    // a page the snapshot does not hold is rendered by the engine on every
    // request (one server.cache_misses each), and the renders agree
    const std::string page_query_string = "name=2%3A1%20MUX&limit=1";
    const auto page = page_query::from_query_string(page_query_string);
    for (const auto& held : default_page_queries())
    {
        ASSERT_NE(held.cache_key(), page.cache_key());
    }
    auto& renders = tel::registry::instance().get_counter("server.cache_misses");
    const auto renders_before = renders.value();
    const auto page_before = server.handle({"GET", "/layouts", page_query_string, ""});
    const auto page_again = server.handle({"GET", "/layouts", page_query_string, ""});
    ASSERT_EQ(page_before.status, 200);
    EXPECT_EQ(page_again.status, 200);
    EXPECT_EQ(page_again.body, page_before.body);
    EXPECT_EQ(page_again.etag, page_before.etag);
    EXPECT_EQ(renders.value() - renders_before, 2u);

    // regeneration grew the catalog: a fresh engine over a superset catalog
    // with a new network and one more layout the page selects
    catalog.add_network("EPFL", "xor5", bm::mux21());
    cat::layout_record extra{};
    extra.benchmark_set = "Trindade16";
    extra.benchmark_name = "2:1 MUX";
    extra.library = cat::gate_library_kind::qca_one;
    extra.algorithm = "exact";
    extra.runtime = 0.3;
    extra.layout = pd::ortho(bm::mux21());
    extra.clocking = extra.layout.clocking().name();
    catalog.add_layout(extra);
    auto regrown = std::make_shared<query_engine>(catalog);
    server.publish(regrown);

    EXPECT_EQ(server.snapshot_generation(), 1u);
    const auto after = server.handle({"GET", "/benchmarks", "", ""});
    ASSERT_EQ(after.status, 200);
    EXPECT_NE(after.body, before.body);
    EXPECT_NE(after.etag, before.etag);
    EXPECT_EQ(json_value::parse(after.body).at("count").as_u64(), 2u);

    const auto page_after = server.handle({"GET", "/layouts", page_query_string, ""});
    ASSERT_EQ(page_after.status, 200);
    EXPECT_EQ(page_after.body, page_json_string(regrown->run(page)));
    EXPECT_EQ(page_after.etag, make_etag(page_after.body));
    EXPECT_NE(page_after.etag, page_before.etag);
    EXPECT_EQ(json_value::parse(page_after.body).at("total").as_u64(), 3u);

    // the old validators no longer match — the revisits re-download
    http_request revisit{"GET", "/benchmarks", "", ""};
    revisit.if_none_match = "\"" + before.etag + "\"";
    EXPECT_EQ(server.handle(revisit).status, 200);
    http_request page_revisit{"GET", "/layouts", page_query_string, ""};
    page_revisit.if_none_match = "\"" + page_before.etag + "\"";
    EXPECT_EQ(server.handle(page_revisit).status, 200);
}

// -------------------------------------------------------------- HTTP parsing

TEST(ParseHttpRequestTest, ParsesConnectionAndConditionalHeaders)
{
    const auto keep = parse_http_request("GET / HTTP/1.1\r\nHost: x\r\n\r\n", 1024);
    ASSERT_EQ(keep.status, http_parse_status::ok);
    EXPECT_FALSE(keep.request.connection_close);

    const auto close = parse_http_request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 1024);
    ASSERT_EQ(close.status, http_parse_status::ok);
    EXPECT_TRUE(close.request.connection_close);

    // HTTP/1.0 defaults to close unless keep-alive is requested
    const auto old = parse_http_request("GET / HTTP/1.0\r\n\r\n", 1024);
    ASSERT_EQ(old.status, http_parse_status::ok);
    EXPECT_TRUE(old.request.connection_close);
    const auto old_keep = parse_http_request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1024);
    ASSERT_EQ(old_keep.status, http_parse_status::ok);
    EXPECT_FALSE(old_keep.request.connection_close);

    const auto conditional =
        parse_http_request("GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n\r\n", 1024);
    ASSERT_EQ(conditional.status, http_parse_status::ok);
    EXPECT_EQ(conditional.request.if_none_match, "\"abc\"");
}

// -------------------------------------------------------------- HTTP end2end

TEST_F(server_fixture, ServesEveryEndpointOverLoopback)
{
    server_options options{};
    options.threads = 2;
    catalog_server server{*engine, options};
    server.start();
    ASSERT_TRUE(server.running());
    ASSERT_NE(server.port(), 0);

    // /healthz
    const auto health = http_exchange(server.port(), get_request("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.headers.find("Content-Type: application/json"), std::string::npos);
    EXPECT_NE(health.headers.find("Connection: close"), std::string::npos);

    // /layouts — identical to the in-memory engine
    const auto layouts = http_exchange(server.port(), get_request("/layouts?library=Bestagon"));
    EXPECT_EQ(layouts.status, 200);
    page_query expected_query{};
    expected_query.filter.libraries = {cat::gate_library_kind::bestagon};
    EXPECT_EQ(layouts.body, page_json_string(engine->run(expected_query)));

    // the default page comes out of the pre-rendered snapshot — still
    // byte-identical to a direct engine render
    const auto default_page = http_exchange(server.port(), get_request("/layouts"));
    EXPECT_EQ(default_page.status, 200);
    EXPECT_EQ(default_page.body, page_json_string(engine->run(page_query{})));
    EXPECT_FALSE(default_page.header("ETag").empty());

    // POST /layouts with a JSON body
    const auto posted =
        http_exchange(server.port(), post_request("/layouts", R"({"libraries": ["Bestagon"]})"));
    EXPECT_EQ(posted.status, 200);
    EXPECT_EQ(posted.body, layouts.body);

    // /facets — metadata only; snapshot path must match the engine render
    const auto facets = http_exchange(server.port(), get_request("/facets"));
    EXPECT_EQ(facets.status, 200);
    const auto facet_doc = json_value::parse(facets.body);
    EXPECT_EQ(facet_doc.at("count").as_u64(), 0u);
    EXPECT_EQ(facet_doc.at("facets").at("libraries").at("Bestagon").as_u64(), 1u);
    page_query facet_query{};
    facet_query.limit = 0;
    facet_query.include_facets = true;
    EXPECT_EQ(facets.body, page_json_string(engine->run(facet_query)));

    // /best — best_only forced
    const auto best = http_exchange(server.port(), get_request("/best"));
    EXPECT_EQ(best.status, 200);
    page_query best_query{};
    best_query.filter.best_only = true;
    EXPECT_EQ(best.body, page_json_string(engine->run(best_query)));

    // /benchmarks — snapshot path, byte-identical to the renderer
    const auto benchmarks = http_exchange(server.port(), get_request("/benchmarks"));
    EXPECT_EQ(benchmarks.status, 200);
    EXPECT_EQ(benchmarks.body, render_benchmarks_json(*engine));
    const auto bench_doc = json_value::parse(benchmarks.body);
    EXPECT_EQ(bench_doc.at("count").as_u64(), 1u);
    EXPECT_EQ(bench_doc.at("benchmarks").as_array().front().at("layouts").as_u64(), 2u);

    // /download/<id> — canonical .fgl bytes; the id doubles as the ETag
    const auto& id = engine->id_of(0);
    const auto download = http_exchange(server.port(), get_request("/download/" + id));
    EXPECT_EQ(download.status, 200);
    EXPECT_NE(download.headers.find("Content-Type: application/xml"), std::string::npos);
    EXPECT_EQ(download.body, io::write_fgl_string(catalog.layouts()[0].layout));
    EXPECT_EQ(download.header("ETag"), "\"" + id + "\"");

    // error paths
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/ffffffffffffffff")).status, 404);
    EXPECT_EQ(http_exchange(server.port(), get_request("/layouts?library=cmos")).status, 400);
    EXPECT_EQ(http_exchange(server.port(), get_request("/nope")).status, 404);
    EXPECT_EQ(http_exchange(server.port(), "NONSENSE\r\n\r\n").status, 400);
    EXPECT_EQ(http_exchange(server.port(), request_line("BREW", "/layouts", true)).status, 501);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
}

TEST_F(server_fixture, KeepAliveServesSequentialRequestsOnOneConnection)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();

    keepalive_client client{server.port()};

    client.send_raw(keepalive_get("/healthz"));
    const auto first = client.read_response();
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.header("Connection"), "keep-alive");
    EXPECT_EQ(json_value::parse(first.body).at("layouts").as_u64(), 2u);

    client.send_raw(keepalive_get("/benchmarks"));
    const auto second = client.read_response();
    EXPECT_EQ(second.status, 200);
    EXPECT_EQ(second.body, render_benchmarks_json(*engine));

    // the final request asks for close; the server honors it
    client.send_raw(get_request("/layouts"));
    const auto last = client.read_response();
    EXPECT_EQ(last.status, 200);
    EXPECT_EQ(last.header("Connection"), "close");
    EXPECT_EQ(last.body, page_json_string(engine->run(page_query{})));
    EXPECT_TRUE(client.server_closed());

    server.stop();
}

TEST_F(server_fixture, PipelinedRequestsAreAnsweredInOrder)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();

    keepalive_client client{server.port()};

    // both requests hit the wire before the first response is read
    client.send_raw(keepalive_get("/benchmarks") + keepalive_get("/healthz"));

    const auto first = client.read_response();
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.body, render_benchmarks_json(*engine));

    const auto second = client.read_response();
    EXPECT_EQ(second.status, 200);
    EXPECT_EQ(json_value::parse(second.body).at("status").as_string(), "ok");

    server.stop();
}

TEST_F(server_fixture, IfNoneMatchRevisitGets304WithoutBody)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();

    keepalive_client client{server.port()};

    client.send_raw(keepalive_get("/benchmarks"));
    const auto first = client.read_response();
    ASSERT_EQ(first.status, 200);
    const auto etag = first.header("ETag");
    ASSERT_FALSE(etag.empty());

    client.send_raw(keepalive_get("/benchmarks", "If-None-Match: " + etag + "\r\n"));
    const auto revisit = client.read_response();
    EXPECT_EQ(revisit.status, 304);
    EXPECT_TRUE(revisit.body.empty());
    EXPECT_EQ(revisit.header("ETag"), etag);
    EXPECT_EQ(revisit.headers.find("Content-Length"), std::string::npos);

    // the connection survives the 304 and serves a normal response next
    client.send_raw(keepalive_get("/healthz"));
    EXPECT_EQ(client.read_response().status, 200);

    server.stop();
}

TEST_F(server_fixture, HeadMatchesGetWithoutBody)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();

    const auto get = http_exchange(server.port(), get_request("/benchmarks"));
    ASSERT_EQ(get.status, 200);

    const auto head = http_exchange(server.port(), request_line("HEAD", "/benchmarks", true));
    EXPECT_EQ(head.status, 200);
    EXPECT_TRUE(head.body.empty());
    // identical headers: Content-Length reflects the would-be body
    EXPECT_EQ(head.header("Content-Length"), std::to_string(get.body.size()));
    EXPECT_EQ(head.header("Content-Type"), get.header("Content-Type"));
    EXPECT_EQ(head.header("ETag"), get.header("ETag"));

    // HEAD of an error route carries the error's frame, no body
    const auto missing = http_exchange(server.port(), request_line("HEAD", "/nope", true));
    EXPECT_EQ(missing.status, 404);
    EXPECT_TRUE(missing.body.empty());

    server.stop();
}

TEST_F(server_fixture, SlowClientIsCutOffWithRequestTimeout)
{
    server_options options{};
    options.threads = 1;
    options.request_deadline_s = 0.3;
    catalog_server server{*engine, options};
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);

    // a slow-loris client: trickle an incomplete request head and never
    // finish it — the event loop must answer 408 once the deadline expires
    // instead of holding the connection open indefinitely
    const std::string fragment = "GET /layouts HTTP/1.1\r\n";
    for (const char c : fragment)
    {
        if (::send(fd, &c, 1, MSG_NOSIGNAL) <= 0)
        {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }

    std::string raw;
    char buffer[1024];
    for (;;)
    {
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
        {
            break;
        }
        raw.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(raw.rfind("HTTP/1.1 408", 0), 0u) << raw;
    server.stop();
}

TEST_F(server_fixture, IdleKeepAliveConnectionIsClosed)
{
    server_options options{};
    options.threads = 1;
    options.idle_timeout_s = 0.2;
    catalog_server server{*engine, options};
    server.start();

    keepalive_client client{server.port()};
    client.send_raw(keepalive_get("/healthz"));
    EXPECT_EQ(client.read_response().status, 200);

    // idle past the timeout: the server reclaims the connection
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (!client.server_closed() && std::chrono::steady_clock::now() < deadline)
    {
        std::this_thread::sleep_for(std::chrono::milliseconds{50});
    }
    EXPECT_TRUE(client.server_closed());

    server.stop();
}

TEST_F(server_fixture, AcceptFailureBacksOffInsteadOfSpinning)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();

    auto& errors = tel::registry::instance().get_counter("server.accept_errors");
    const auto errors_before = errors.value();

    // the first accept attempt reports EMFILE (fd exhaustion); the loop must
    // count it, back off with the listen fd deregistered, then recover and
    // serve the very connection whose accept initially failed
    res::fault::configure("server.accept=1");
    const auto health = http_exchange(server.port(), get_request("/healthz"));
    res::fault::configure("");

    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(errors.value(), errors_before + 1);

    // and the server keeps serving afterwards
    EXPECT_EQ(http_exchange(server.port(), get_request("/healthz")).status, 200);

    server.stop();
}

TEST_F(server_fixture, ConcurrentClientsGetConsistentAnswers)
{
    server_options options{};
    options.threads = 4;
    catalog_server server{*engine, options};
    server.start();

    const auto expected = page_json_string(engine->run(page_query{}));
    std::vector<std::thread> clients;
    std::vector<std::string> bodies(8);
    for (std::size_t i = 0; i < bodies.size(); ++i)
    {
        clients.emplace_back([&, i] { bodies[i] = http_exchange(server.port(), get_request("/layouts")).body; });
    }
    for (auto& t : clients)
    {
        t.join();
    }
    for (const auto& body : bodies)
    {
        EXPECT_EQ(body, expected);
    }
    server.stop();
}

TEST_F(server_fixture, DownloadRejectsMalformedIds)
{
    server_options options{};
    options.threads = 1;
    catalog_server server{*engine, options};
    server.start();
    ASSERT_TRUE(server.running());

    const auto& good = engine->id_of(0);
    ASSERT_EQ(http_exchange(server.port(), get_request("/download/" + good)).status, 200);

    // path traversal must never reach the store or the filesystem
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/../../etc/passwd")).status, 404);
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/..%2f..%2fetc%2fpasswd")).status, 404);
    // uppercase hex is not a minted id shape
    std::string upper = good;
    for (auto& ch : upper)
    {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/" + upper)).status, 404);
    // too short / too long / empty
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/abc123")).status, 404);
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/" + good + "00")).status, 404);
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/")).status, 404);
    // correct length, non-hex alphabet
    EXPECT_EQ(http_exchange(server.port(), get_request("/download/zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")).status,
              404);

    server.stop();
}
