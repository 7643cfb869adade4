#include "telemetry/trace_export.hpp"

#include "benchmarks/functions.hpp"
#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "physical_design/hexagonalization.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/portfolio.hpp"
#include "service/json.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace mnt;
using mnt::svc::json_value;

namespace
{

/// Recording on + empty registry for every test, recording off afterwards so
/// other test binaries' assumptions hold.
class trace_fixture : public ::testing::Test
{
protected:
    void SetUp() override
    {
        tel::registry::instance().reset();
        tel::set_trace_recording(true);
    }

    void TearDown() override
    {
        tel::set_trace_recording(false);
        tel::registry::instance().reset();
        // a test that pinned the task runtime's thread count hands automatic
        // resolution back
        trt::set_thread_count(0);
        trt::shutdown();
    }
};

/// The ph:"X" events of a parsed trace document.
std::vector<const json_value*> complete_events(const json_value& document)
{
    std::vector<const json_value*> spans;
    for (const auto& event : document.at("traceEvents").as_array())
    {
        if (event.at("ph").as_string() == "X")
        {
            spans.push_back(&event);
        }
    }
    return spans;
}

bool has_span_named(const json_value& document, const std::string& name)
{
    for (const auto* event : complete_events(document))
    {
        if (event->at("name").as_string() == name)
        {
            return true;
        }
    }
    return false;
}

/// Minimal raw loopback HTTP client (the server always closes after one
/// response).
std::string http_get(const std::uint16_t port, const std::string& target)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
    const std::string request = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0), static_cast<ssize_t>(request.size()));
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
    return raw;
}

/// The find-based descent the tests use everywhere: every trace document
/// must parse strictly (json_value::parse throws on any malformed JSON).
json_value parse_trace(const std::string& text)
{
    return json_value::parse(text);
}

}  // namespace

// ------------------------------------------------------------ document shape

TEST_F(trace_fixture, EmptyTimelineIsStillAValidDocument)
{
    const auto document = parse_trace(tel::chrome_trace_string());
    EXPECT_EQ(document.at("displayTimeUnit").as_string(), "ms");
    EXPECT_TRUE(document.at("traceEvents").is_array());
    EXPECT_EQ(document.at("otherData").at("tool").as_string(), "mnt_bench");
    EXPECT_EQ(complete_events(document).size(), 0u);
}

TEST_F(trace_fixture, EveryEventCarriesTheRequiredFields)
{
    {
        const tel::span outer{"outer", "detail \"quoted\"\n\xFF"};
        const tel::span inner{"inner"};
    }
    const auto document = parse_trace(tel::chrome_trace_string());
    const auto& events = document.at("traceEvents").as_array();
    ASSERT_GE(events.size(), 2u);

    bool saw_process_name = false;
    bool saw_thread_name = false;
    for (const auto& event : events)
    {
        const auto ph = event.at("ph").as_string();
        ASSERT_TRUE(ph == "X" || ph == "M") << ph;
        EXPECT_TRUE(event.at("pid").is_number());
        if (ph == "M")
        {
            saw_process_name |= event.at("name").as_string() == "process_name";
            saw_thread_name |= event.at("name").as_string() == "thread_name";
            continue;
        }
        // complete events: name/cat/ts/dur/tid all mandatory
        EXPECT_FALSE(event.at("name").as_string().empty());
        EXPECT_EQ(event.at("cat").as_string(), "span");
        EXPECT_TRUE(event.at("ts").is_number());
        EXPECT_TRUE(event.at("dur").is_number());
        EXPECT_TRUE(event.at("tid").is_number());
        EXPECT_GE(event.at("ts").as_number(), 0.0);
        EXPECT_GE(event.at("dur").as_number(), 0.0);
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_TRUE(saw_thread_name);
    // the hostile args string survived as strict JSON and is attached
    bool saw_detail = false;
    for (const auto* event : complete_events(document))
    {
        if (const auto* args = event->find("args"); args != nullptr)
        {
            saw_detail |= !args->at("detail").as_string().empty();
        }
    }
    EXPECT_TRUE(saw_detail);
}

TEST_F(trace_fixture, NestedSpansAreOrderedWithinTheParentWindow)
{
    {
        const tel::span outer{"window/outer"};
        const tel::span inner{"window/inner"};
    }
    const auto document = parse_trace(tel::chrome_trace_string());
    const json_value* outer = nullptr;
    const json_value* inner = nullptr;
    for (const auto* event : complete_events(document))
    {
        if (event->at("name").as_string() == "window/outer")
        {
            outer = event;
        }
        if (event->at("name").as_string() == "window/inner")
        {
            inner = event;
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // the child opened after and closed before its parent
    EXPECT_GE(inner->at("ts").as_number(), outer->at("ts").as_number());
    EXPECT_LE(inner->at("ts").as_number() + inner->at("dur").as_number(),
              outer->at("ts").as_number() + outer->at("dur").as_number() + 1e-3);
    EXPECT_EQ(inner->at("tid").as_u64(), outer->at("tid").as_u64());
}

// ------------------------------------------------- spans from three layers

TEST_F(trace_fixture, CapturesPortfolioAlgorithmAndServerSpans)
{
    tel::set_enabled(true);

    // layer 1+2: a real portfolio run (physical_design) with its algorithm
    // spans (ortho etc.) nested inside
    const auto network = bm::mux21();
    pd::portfolio_params params{};
    params.try_exact = false;
    const auto run = pd::generate_portfolio(network, pd::portfolio_flavor::cartesian, params);
    ASSERT_FALSE(run.results.empty());

    // layer 3: a served HTTP request (service)
    cat::catalog catalog;
    catalog.add_network("Trindade16", "2:1 MUX", network);
    cat::layout_record record{};
    record.benchmark_set = "Trindade16";
    record.benchmark_name = "2:1 MUX";
    record.library = cat::gate_library_kind::qca_one;
    record.algorithm = "ortho";
    record.runtime = 0.1;
    record.layout = pd::ortho(network);
    record.clocking = record.layout.clocking().name();
    catalog.add_layout(record);
    const svc::query_engine engine{catalog};
    svc::server_options options{};
    options.threads = 1;
    svc::catalog_server server{engine, options};
    server.start();
    ASSERT_NE(server.port(), 0);
    const auto raw = http_get(server.port(), "/layouts");
    EXPECT_NE(raw.find("200"), std::string::npos);
    server.stop();

    const auto document = parse_trace(tel::chrome_trace_string());
    EXPECT_TRUE(has_span_named(document, "portfolio/cartesian"));
    EXPECT_TRUE(has_span_named(document, "ortho"));
    EXPECT_TRUE(has_span_named(document, "server/request"));

    // the request span carries "GET /layouts" as its detail arg
    bool saw_request_detail = false;
    for (const auto* event : complete_events(document))
    {
        if (event->at("name").as_string() == "server/request")
        {
            const auto* args = event->find("args");
            ASSERT_NE(args, nullptr);
            saw_request_detail |= args->at("detail").as_string() == "GET /layouts";
        }
    }
    EXPECT_TRUE(saw_request_detail);

    tel::set_enabled(false);
}

// -------------------------------------------- worker-pool span parentage

TEST_F(trace_fixture, ParallelPortfolioCombosNestUnderThePortfolioRoot)
{
    // combos overlap only on a multi-threaded runtime: pin one for the test,
    // also on a 1-core host or under MNT_THREADS=1 (TearDown restores it)
    trt::set_thread_count(3);
    tel::set_enabled(true);

    pd::portfolio_params params{};
    params.try_exact = false;
    params.jobs = 3;
    const auto run = pd::generate_portfolio(bm::mux21(), pd::portfolio_flavor::cartesian, params);
    ASSERT_FALSE(run.results.empty());

    const auto tree = tel::registry::instance().trace();
    ASSERT_NE(tree, nullptr);

    const tel::span_node* portfolio = nullptr;
    for (const auto& child : tree->children)
    {
        if (child->name == "portfolio/cartesian")
        {
            portfolio = child.get();
        }
        // no combo span may surface as a direct root child: that would mean
        // a worker thread lost the portfolio parent context
        EXPECT_EQ(child->name.find("ortho"), std::string::npos) << child->name;
    }
    ASSERT_NE(portfolio, nullptr);
    EXPECT_FALSE(portfolio->children.empty());

    std::size_t combos = 0;
    for (const auto& child : portfolio->children)
    {
        combos += child->name.find('|') != std::string::npos || child->name.find("ortho") == 0 ? 1 : 0;
    }
    EXPECT_GT(combos, 0u);

    // the per-thread timeline saw more than one worker tid
    const auto events = tel::registry::instance().trace_events();
    std::vector<std::uint32_t> tids;
    for (const auto& event : events)
    {
        if (std::find(tids.begin(), tids.end(), event.tid) == tids.end())
        {
            tids.push_back(event.tid);
        }
    }
    EXPECT_GE(tids.size(), 2u);

    tel::set_enabled(false);
}

// ------------------------------------------------------------- file export

TEST_F(trace_fixture, WritesAndExportsFiles)
{
    {
        const tel::span s{"file/span"};
    }
    const auto path = std::filesystem::temp_directory_path() / "mnt_trace_export_test.json";
    tel::write_chrome_trace_file(path);
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto document = parse_trace(buffer.str());
    EXPECT_TRUE(has_span_named(document, "file/span"));
    std::filesystem::remove(path);

    // unwritable path must throw, not crash
    EXPECT_THROW(tel::write_chrome_trace_file("/nonexistent-dir/trace.json"), mnt::mnt_error);
}
