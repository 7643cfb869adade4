#pragma once

/// \file serving.hpp
/// \brief Workload `serve_search`: the catalog server over a store of the
///        `aoi` reference family, driven by one closed-loop keep-alive client
///        (it sends its next request only after the previous response
///        arrived). README.md says why the load is not an open loop at a
///        fixed arrival rate.

#include "common.hpp"
#include "http_client.hpp"
#include "stores.hpp"

#include "service/query.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "telemetry/telemetry.hpp"

#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace e2e
{

/// Server event loops. The one client runs on the calling thread, so a run
/// keeps two threads busy, and they take turns.
inline constexpr std::size_t server_threads = 1;

/// Measurement windows. Throughput and latency are the medians over the
/// windows (see the timing notes in common.hpp).
inline constexpr std::size_t windows = 20;

/// Client time between two readings of the host's speed. A reading takes
/// about 4 ms.
inline constexpr double probe_interval_s = 0.1;

/// Set-ups per run (each builds, loads and serves a store).
inline constexpr int serve_setups = 5;

/// Requests in the traced replay.
inline constexpr std::size_t replay_requests = 10000;

inline constexpr std::size_t max_request_bytes = 1U << 20U;

/// An engine over a loaded store. The aliasing pointer from \ref make_engine
/// keeps the store snapshot, whose catalog the engine references, alive for
/// as long as any server snapshot holds the engine.
struct engine_holder
{
    explicit engine_holder(std::shared_ptr<const svc::store_snapshot> loaded) :
            snapshot{std::move(loaded)},
            engine{snapshot->catalog, snapshot->layout_ids}
    {}

    std::shared_ptr<const svc::store_snapshot> snapshot;
    svc::query_engine engine;
};

[[nodiscard]] inline std::shared_ptr<const svc::query_engine>
make_engine(const std::shared_ptr<const svc::store_snapshot>& snapshot)
{
    auto holder = std::make_shared<const engine_holder>(snapshot);
    return {holder, &holder->engine};
}

/// The request sequence of a run: 30% downloads, 35% name x library
/// lookups, 35% deep result pages with three page sizes and four sort keys;
/// far more distinct targets than the 128-entry response cache holds. The
/// live client and the replay draw the same sequence from the same seed.
class request_mix
{
public:
    request_mix(const svc::store_snapshot& snapshot, const std::uint64_t seed) :
            ids{snapshot.layout_ids},
            layouts{snapshot.catalog.num_layouts()},
            random{seed}
    {
        for (const auto& network : snapshot.catalog.networks())
        {
            names.push_back(network.benchmark_name);
        }
        if (ids.empty() || names.empty())
        {
            throw std::runtime_error{"the served store is empty"};
        }
    }

    [[nodiscard]] std::string next()
    {
        const auto u = random.uniform();
        if (u < 0.30)
        {
            return "/download/" + ids[random.below(ids.size())];
        }
        if (u < 0.65)
        {
            return "/layouts?name=" + names[random.below(names.size())] +
                   (random.chance(0.5) ? "&library=QCA%20ONE" : "&library=Bestagon");
        }
        static const std::array<const char*, 4> sort_keys{"area", "benchmark", "algorithm", "runtime"};
        static const std::array<const char*, 3> limits{"10", "25", "50"};
        const auto key = sort_keys[random.below(sort_keys.size())];
        const auto offset = 10 * random.below(layouts / 10 + 1);
        return std::string{"/layouts?sort="} + key + "&offset=" + std::to_string(offset) +
               "&limit=" + limits[random.below(limits.size())];
    }

private:
    std::vector<std::string> names;
    std::vector<std::string> ids;
    std::size_t layouts;
    rng random;
};

/// Request latencies in buckets 0.1% wide from 1 us to about 100 s.
/// Percentiles are exact to within one bucket, and the memory stays fixed
/// however many requests a run serves, so peak RSS does not depend on the
/// speed of the machine.
class latency_histogram
{
public:
    void record(const double seconds)
    {
        const auto position = std::log(std::max(seconds, min_s) / min_s) / std::log(growth);
        ++counts[std::min(static_cast<std::size_t>(position), buckets - 1)];
        ++total;
    }

    [[nodiscard]] std::uint64_t count() const noexcept
    {
        return total;
    }

    /// Ceil-rank percentile (\p q in (0, 1]), as the geometric middle of
    /// its bucket.
    [[nodiscard]] double percentile(const double q) const
    {
        const auto rank =
            std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets && total > 0; ++i)
        {
            seen += counts[i];
            if (seen >= rank)
            {
                return min_s * std::pow(growth, static_cast<double>(i) + 0.5);
            }
        }
        return 0.0;
    }

private:
    static constexpr double min_s = 1e-6;
    static constexpr double growth = 1.001;
    static constexpr std::size_t buckets = 18500;

    std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(buckets, 0);
    std::uint64_t total{0};
};

/// The served store, its loaded snapshot and the running server.
struct serve_state
{
    std::filesystem::path dir;
    std::optional<svc::layout_store> store;
    std::shared_ptr<const svc::store_snapshot> snapshot;
    /// Declared last so it stops before the store it reads blobs from.
    std::unique_ptr<svc::catalog_server> server;
};

/// Builds the store (journal off: one manifest save), loads it and starts
/// the server, replacing whatever \p state held.
inline void build_served(serve_state& state, const std::vector<bm::benchmark_entry>& entries)
{
    state.server.reset();
    state.snapshot.reset();
    state.store.reset();
    std::filesystem::remove_all(state.dir);
    {
        svc::layout_store store{state.dir};
        auto options = store_options();
        options.journal = false;
        const auto populated = svc::populate_store(store, entries, options);
        if (populated.failures_recorded != 0)
        {
            throw std::runtime_error{"building the served store recorded failures"};
        }
    }
    state.store.emplace(state.dir);
    state.snapshot = std::make_shared<const svc::store_snapshot>(state.store->load());
    svc::server_options options{};
    options.threads = server_threads;
    state.server = std::make_unique<svc::catalog_server>(make_engine(state.snapshot), options);
    state.server->attach_store(&*state.store);
    state.server->start();
}

/// What the live client saw.
struct serve_measurement
{
    /// Per window, at the nominal speed (see speed_clock).
    std::vector<double> window_rps;
    std::vector<double> window_p50_s;
    std::vector<double> window_p99_s;
    /// Measured mean latency.
    double mean_latency_s{0.0};
    std::uint64_t requests{0};
    std::uint64_t errors{0};
    std::string first_error;
    /// First response per target.
    std::unordered_map<std::string, http_reply> first;
};

/// A warm-up, then \ref windows equal windows filling \p seconds, each a
/// closed loop on one keep-alive connection. The client reads the host's
/// speed every \ref probe_interval_s and scales the latencies and the time
/// of each interval by it.
[[nodiscard]] inline serve_measurement measure_serving(const serve_state& state, const std::uint64_t seed,
                                                       const double seconds)
{
    serve_measurement m{};
    request_mix mix{*state.snapshot, seed};
    http_client client{state.server->port()};
    const auto request = [&]
    {
        const auto target = mix.next();
        const auto start = clock_type::now();
        client.send_all(get_request(target));
        auto reply = client.read_reply();
        const auto latency = seconds_since(start);
        ++m.requests;
        if (reply.status != 200)
        {
            if (m.errors++ == 0)
            {
                m.first_error = target + " answered " + std::to_string(reply.status);
            }
        }
        else
        {
            m.first.try_emplace(target, std::move(reply));
        }
        return latency;
    };
    const auto loop_for = [&](const double loop_s, std::vector<double>& latencies)
    {
        const auto end = clock_type::now() +
                         std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(loop_s));
        while (clock_type::now() < end)
        {
            latencies.push_back(request());
        }
    };

    const auto warmup_s = std::clamp(0.1 * seconds, 0.2, 2.0);
    const auto window_s = std::max(seconds - warmup_s, 0.1) / static_cast<double>(windows);
    const auto intervals = std::max<long>(1, std::lround(window_s / probe_interval_s));
    std::vector<double> latencies;
    loop_for(warmup_s, latencies);
    latencies.clear();

    speed_clock clock;
    double latency_sum_s = 0.0;
    std::uint64_t measured = 0;
    for (std::size_t w = 0; w < windows; ++w)
    {
        latency_histogram window;
        double window_scaled_s = 0.0;
        for (long i = 0; i < intervals; ++i)
        {
            window_scaled_s +=
                clock.time([&] { loop_for(window_s / static_cast<double>(intervals), latencies); });
            for (const auto latency : latencies)
            {
                window.record(latency * clock.last_factor());
                latency_sum_s += latency;
            }
            measured += latencies.size();
            latencies.clear();
        }
        m.window_rps.push_back(static_cast<double>(window.count()) / window_scaled_s);
        m.window_p50_s.push_back(window.percentile(0.50));
        m.window_p99_s.push_back(window.percentile(0.99));
    }
    m.mean_latency_s = ratio(latency_sum_s, static_cast<double>(measured));
    return m;
}

[[nodiscard]] inline bool same_response(const http_reply& wire, const svc::http_response& expected)
{
    return wire.status == expected.status && wire.content_type == expected.content_type &&
           wire.etag == expected.etag && wire.body == expected.body;
}

/// The first response per distinct target must equal handle() on the same
/// request (status, content type, ETag and body bytes).
inline void check_first_responses(run_report& report, svc::catalog_server& server, const serve_measurement& live)
{
    for (const auto& [target, reply] : live.first)
    {
        const auto parsed = svc::parse_http_request(get_request(target), max_request_bytes);
        if (parsed.status != svc::http_parse_status::ok || !same_response(reply, server.handle(parsed.request)))
        {
            report.fail(target + ": served bytes differ from catalog_server::handle()");
        }
    }
}

/// Replays the start-up (load, engine, snapshot) and the first requests of
/// the live sequence in process: parse_http_request and
/// catalog_server::handle. Returns the wall time without excluded
/// bookkeeping. First responses that the live run also saw must be
/// byte-identical to it.
inline double replay_serving(tracer& tr, const serve_state& state, const std::uint64_t seed,
                             const serve_measurement& live, run_report& report, std::size_t& replayed)
{
    const auto start = clock_type::now();
    const auto excluded_before = tr.excluded();
    {
        const auto root = tr.step("serve");
        std::optional<svc::layout_store> store;
        const auto snapshot = std::make_shared<const svc::store_snapshot>(
            replay_load(tr, store, state.dir, state.snapshot->layout_ids));
        std::shared_ptr<const svc::query_engine> engine;
        {
            const auto span = tr.layer("service.query.engine_build");
            engine = make_engine(snapshot);
        }
        {
            const auto span = tr.layer("service.snapshot.build");
            static_cast<void>(svc::build_catalog_snapshot(engine, 0));
        }
        std::optional<svc::catalog_server> server;
        tr.untimed(
            [&]
            {
                svc::server_options options{};
                options.threads = server_threads;
                server.emplace(engine, options);
                server->attach_store(&*store);
            });

        auto& misses = tel::registry::instance().get_counter("server.cache_misses");
        request_mix mix{*snapshot, seed};
        std::unordered_set<std::string> checked;
        const auto requests = std::min<std::size_t>(live.requests, replay_requests);
        for (replayed = 0; replayed < requests; ++replayed)
        {
            const auto id = replayed;
            std::string target;
            tr.untimed([&] { target = mix.next(); });
            const auto request_span = tr.step("request", id);

            svc::http_parse_result parsed;
            {
                const auto span = tr.layer("service.server.parse", id);
                parsed = svc::parse_http_request(get_request(target), max_request_bytes);
            }
            const auto misses_before = misses.value();
            svc::http_response response;
            int handle_span = -1;
            {
                const auto span = tr.layer("service.server.handle", id);
                handle_span = span.id();
                response = server->handle(parsed.request);
            }
            if (misses.value() != misses_before)
            {
                const auto query = svc::page_query::from_query_string(parsed.request.query);
                svc::result_page page;
                tr.attribute(handle_span, "service.query.run", tr.inner([&] { page = engine->run(query); }));
                tr.attribute(handle_span, "service.query.render",
                             tr.inner([&] { static_cast<void>(svc::page_json_string(page)); }));
            }
            else if (parsed.request.path.rfind("/download/", 0) == 0)
            {
                const auto path = store->blob_path(parsed.request.path.substr(10));
                tr.attribute(handle_span, "service.server.download",
                             tr.inner([&] { static_cast<void>(svc::read_file(path.value())); }));
            }
            tr.untimed(
                [&]
                {
                    const auto seen = live.first.find(target);
                    if (seen != live.first.end() && checked.insert(target).second &&
                        !same_response(seen->second, response))
                    {
                        report.fail(target + ": replayed response differs from the served one");
                    }
                });
        }
    }
    return seconds_since(start) - (tr.excluded() - excluded_before);
}

[[nodiscard]] inline run_report run_serve(const run_options& options, const std::filesystem::path& scratch)
{
    run_report report{};
    serve_state state{};
    state.dir = scratch / "served";
    const auto entries = family_entries(options.seed);
    // the server must keep running once measuring starts, so every set-up
    // happens up front, each one a burst of its own
    setup_clock setup{};
    for (int i = 0; i < serve_setups; ++i)
    {
        setup.burst(1,
                    [&]
                    {
                        start_pool();
                        build_served(state, entries);
                    });
    }

    auto& registry = tel::registry::instance();
    const auto counter = [&](const char* name) { return static_cast<double>(registry.get_counter(name).value()); };
    const auto requests_before = counter("server.requests");
    const auto snapshot_hits_before = counter("server.snapshot_hits");
    const auto cache_hits_before = counter("server.cache_hits");
    const auto cache_misses_before = counter("server.cache_misses");

    const auto live = measure_serving(state, options.seed, options.seconds);
    const auto rss_mb = peak_rss_mb();

    const auto requests = counter("server.requests") - requests_before;
    const auto snapshot_hits = counter("server.snapshot_hits") - snapshot_hits_before;
    const auto cache_hits = counter("server.cache_hits") - cache_hits_before;
    const auto cache_misses = counter("server.cache_misses") - cache_misses_before;

    report.attempted += live.requests;
    if (live.errors != 0)
    {
        report.fail(std::to_string(live.errors) + " failed requests, first: " + live.first_error, live.errors);
    }
    check_first_responses(report, *state.server, live);

    if (!options.trace)
    {
        std::uint64_t area = 0;
        for (const auto& layout : state.snapshot->catalog.layouts())
        {
            area += layout.area;
        }
        add_end_to_end(report, setup.seconds(), median(live.window_rps), median(live.window_p50_s),
                       median(live.window_p99_s), rss_mb, area);
        return report;
    }

    // untraced replays right before and after the traced one give the wall
    // time the tracing overhead is measured against
    std::size_t replayed = 0;
    double untraced_s = 0.0;
    tracer tr{true};
    for (const bool traced : {false, true, false})
    {
        tracer untraced{false};
        const auto wall_s = replay_serving(traced ? tr : untraced, state, options.seed, live, report, replayed);
        untraced_s += traced ? 0.0 : 0.5 * wall_s;
    }
    const auto summary = tr.summarize();

    const auto per_request_us = [&](const char* layer)
    {
        const auto it = summary.busy_s.find(layer);
        return it == summary.busy_s.end() ? 0.0 : it->second * 1e6 / static_cast<double>(replayed);
    };
    serve_layers serve{};
    serve.parse_us = per_request_us("service.server.parse");
    serve.handle_us = per_request_us("service.server.handle");
    serve.query_run_us = per_request_us("service.query.run");
    serve.query_render_us = per_request_us("service.query.render");
    serve.download_us = per_request_us("service.server.download");
    serve.socket_us = live.mean_latency_s * 1e6 - (serve.parse_us + serve.handle_us + serve.query_run_us +
                                                   serve.query_render_us + serve.download_us);
    serve.snapshot_hit_ratio = ratio(snapshot_hits, requests);
    serve.cache_hit_ratio = ratio(cache_hits, cache_hits + cache_misses);
    add_layer_metrics(report, summary, replay_counts{}, untraced_s, directory_mb(state.dir), serve);
    write_spans(tr, options);
    return report;
}

}  // namespace e2e
