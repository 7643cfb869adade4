/// \file micro_io.cpp
/// \brief Engineering microbenchmarks (μ4–μ5): .fgl write and read, Verilog
///        parsing throughput, bit-parallel simulation, the cost of serving
///        one catalog page (the query engine's filter, facets and window),
///        and the per-byte work of a request: a page's ETag and a blob
///        file's read.

#include "benchmarks/synthetic.hpp"
#include "core/catalog.hpp"
#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "layout/clocking_scheme.hpp"
#include "layout/gate_level_layout.hpp"
#include "network/simulation.hpp"
#include "physical_design/ortho.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/store.hpp"

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

namespace
{

using namespace mnt;

ntk::logic_network medium_network()
{
    bm::synthetic_spec spec{};
    spec.num_pis = 12;
    spec.num_pos = 6;
    spec.num_gates = 512;
    spec.window = 32;
    return bm::synthetic_network(spec);
}

void fgl_write(benchmark::State& state)
{
    const auto layout = pd::ortho(medium_network());
    std::size_t bytes = 0;
    for (auto _ : state)
    {
        const auto text = io::write_fgl_string(layout);
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
    }
    state.counters["tiles"] = static_cast<double>(layout.num_occupied());
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(fgl_write)->Unit(benchmark::kMillisecond)->Iterations(20);

/// Reads the document fgl_write writes, for the same layout.
void fgl_read(benchmark::State& state)
{
    const auto layout = pd::ortho(medium_network());
    const auto text = io::write_fgl_string(layout);
    for (auto _ : state)
    {
        auto reread = io::read_fgl_string(text);
        benchmark::DoNotOptimize(reread.num_occupied());
    }
    state.counters["tiles"] = static_cast<double>(layout.num_occupied());
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(fgl_read)->Unit(benchmark::kMillisecond)->Iterations(20);

void verilog_round_trip(benchmark::State& state)
{
    const auto network = medium_network();
    for (auto _ : state)
    {
        const auto text = io::write_verilog_string(network);
        auto reread = io::read_verilog_string(text);
        benchmark::DoNotOptimize(reread.size());
    }
}
BENCHMARK(verilog_round_trip)->Unit(benchmark::kMillisecond)->Iterations(10);

void word_simulation(benchmark::State& state)
{
    const auto network = medium_network();
    const std::vector<std::uint64_t> words(network.num_pis(), 0xdeadbeefcafebabeull);
    for (auto _ : state)
    {
        auto out = ntk::simulate_word(network, words);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(word_simulation)->Unit(benchmark::kMicrosecond)->Iterations(200);

/// 512 blank layouts with provenance spread over every facet: the query
/// engine reads metadata and ids only, never gates.
const cat::catalog& page_catalog()
{
    static const cat::catalog catalog = []
    {
        static const std::array<const char*, 3> algorithms{"exact", "ortho", "NPR"};
        static const std::array<lyt::clocking_kind, 3> clockings{lyt::clocking_kind::twoddwave,
                                                                 lyt::clocking_kind::use, lyt::clocking_kind::res};
        cat::catalog c;
        for (std::uint32_t i = 0; i < 512; ++i)
        {
            cat::layout_record record{};
            record.benchmark_set = i % 3 == 0 ? "Trindade16" : "Fontes18";
            record.benchmark_name = std::string{"f"} + std::to_string(i % 64);
            record.library = i % 2 == 0 ? cat::gate_library_kind::qca_one : cat::gate_library_kind::bestagon;
            record.algorithm = algorithms[i % algorithms.size()];
            if (i % 4 == 1)
            {
                record.optimizations = {"InOrd (SDN)", "PLO"};
            }
            else if (i % 4 == 2)
            {
                record.optimizations = {"45°"};
            }
            record.runtime = 0.001 * static_cast<double>(i * 7919 % 1000);
            record.layout =
                lyt::gate_level_layout{std::string{"page"} + std::to_string(i), lyt::layout_topology::cartesian,
                                       lyt::clocking_scheme::create(clockings[i % clockings.size()]), 1 + i % 13,
                                       1 + i % 11};
            record.clocking = record.layout.clocking().name();
            c.add_layout(std::move(record));
        }
        return c;
    }();
    return catalog;
}

/// One deep result page, as the server renders it on a cache miss: run the
/// unfiltered query and serialize the page (limit 25 at offset 300).
void query_page(benchmark::State& state, const svc::sort_key key)
{
    const svc::query_engine engine{page_catalog()};
    svc::page_query query{};
    query.sort = key;
    query.offset = 300;
    query.limit = 25;
    for (auto _ : state)
    {
        const auto body = svc::page_json_string(engine.run(query));
        benchmark::DoNotOptimize(body.data());
    }
}
BENCHMARK_CAPTURE(query_page, area, svc::sort_key::area)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(query_page, benchmark, svc::sort_key::benchmark)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(query_page, algorithm, svc::sort_key::algorithm)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(query_page, runtime, svc::sort_key::runtime)->Unit(benchmark::kMicrosecond);

/// The ETag of one 10 KB catalog page: a deep page of page_catalog,
/// repeated to exactly 10,240 bytes (serve_search's deep pages average
/// 9.9 KB).
void page_etag(benchmark::State& state)
{
    const svc::query_engine engine{page_catalog()};
    svc::page_query query{};
    query.offset = 300;
    query.limit = 25;
    const auto page = svc::page_json_string(engine.run(query));
    std::string body;
    while (body.size() < 10240)
    {
        body += page;
    }
    body.resize(10240);
    for (auto _ : state)
    {
        const auto etag = svc::make_etag(body);
        benchmark::DoNotOptimize(etag.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * body.size()));
}
BENCHMARK(page_etag)->Unit(benchmark::kMicrosecond);

/// Reads one 44 KB blob file (serve_search's downloads average 44 KB): the
/// first 45,056 bytes of fgl_write's document.
void blob_read(benchmark::State& state)
{
    constexpr std::size_t size = 45056;
    const auto path =
        std::filesystem::temp_directory_path() / ("mnt_micro_io_blob_" + std::to_string(::getpid()) + ".fgl");
    {
        auto document = io::write_fgl_string(pd::ortho(medium_network()));
        document.resize(size);
        std::ofstream{path, std::ios::binary} << document;
    }
    for (auto _ : state)
    {
        const auto bytes = svc::read_file(path);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
    std::filesystem::remove(path);
}
BENCHMARK(blob_read)->Name("read_file")->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
