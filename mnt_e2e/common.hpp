#pragma once

/// \file common.hpp
/// \brief Options, statistics, reporting and run-structure helpers shared by
///        the mnt_e2e workloads.

#include "replay.hpp"
#include "trace.hpp"

#include "common/taskrt/taskrt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace e2e
{

/// Threads the generation task runtime is pinned to.
inline constexpr std::size_t generation_threads = 1;

/// Set-ups per burst in the generation and store workloads, whose set-up
/// (pool start and inputs) takes at most about a millisecond.
inline constexpr int cheap_setup_repeats = 11;

/// Bytes per MB in every reported size.
inline constexpr double bytes_per_mb = 1024.0 * 1024.0;

struct run_options
{
    std::string workload;
    /// Input seed: processing order of the fixed inputs, and the request mix.
    std::uint64_t seed{0};
    /// Length of the measured phase.
    double seconds{10.0};
    /// Report the per-layer metrics of a traced replay instead of the
    /// end-to-end metrics.
    bool trace{false};
    /// Where to write the traced replay's spans ("" = not written).
    std::string spans_path;
};

struct metric
{
    std::string name;
    double value;
    std::string unit;
};

/// What one workload run reports.
struct run_report
{
    std::vector<metric> metrics;
    std::uint64_t attempted{0};
    std::uint64_t failed{0};

    void add(std::string name, const double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /// Counts one failed operation or check and says why on stderr.
    void fail(const std::string& what, const std::uint64_t count = 1)
    {
        failed += count;
        std::fprintf(stderr, "mnt_e2e: check failed: %s\n", what.c_str());
    }
};

[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31U);
}

/// Small deterministic generator for input orders and request mixes.
class rng
{
public:
    explicit rng(const std::uint64_t seed) : state{seed} {}

    std::uint64_t next() noexcept
    {
        state += 0x9e3779b97f4a7c15ULL;
        return splitmix64(state);
    }

    /// Uniform in [0, n) for n > 0.
    std::size_t below(const std::size_t n) noexcept
    {
        return static_cast<std::size_t>(next() % n);
    }

    /// Uniform in [0, 1).
    double uniform() noexcept
    {
        return static_cast<double>(next() >> 11U) * 0x1.0p-53;
    }

    bool chance(const double p) noexcept
    {
        return uniform() < p;
    }

private:
    std::uint64_t state;
};

/// Fisher-Yates shuffle driven by \p seed.
template <typename T>
void shuffle(std::vector<T>& items, const std::uint64_t seed)
{
    rng random{seed};
    for (std::size_t i = items.size(); i > 1; --i)
    {
        std::swap(items[i - 1], items[random.below(i)]);
    }
}

[[nodiscard]] inline double median(std::vector<double> values)
{
    if (values.empty())
    {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Ceil-rank percentile (\p q in (0, 1]).
[[nodiscard]] inline double percentile(std::vector<double> values, const double q)
{
    if (values.empty())
    {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// Timing. On a shared virtual machine the speed of the host drifts: other
// tenants slow every vCPU at once, by up to 1.7x, in swings that last from
// seconds to minutes (the same 2 s pass of table1_curated took 1.6-2.8 s
// within one 2-minute run). A statistic over one run cannot remove a swing
// that lasts the whole run, so every time is also scaled by the host's speed
// at that moment, read from a fixed reference computation run right before
// and right after the timed work (\ref speed_probe). README.md ("How times
// are measured") has the numbers.

/// Host speed from a fixed reference computation: two xorshift chains,
/// random reads and writes in a 256 KiB table and a data-dependent branch,
/// so it keeps a core's ports, L2 and branch predictor busy as the
/// workloads do. Independent of the library, so a change to the library
/// cannot move it.
class speed_probe
{
public:
    /// Duration of the reference computation at the nominal speed: its
    /// fastest time on the reference host (Intel Xeon, 2.1 GHz, 4 vCPU).
    static constexpr double nominal_s = 1.4e-3;

    /// The factor that turns a duration measured now into the duration at
    /// the nominal speed: nominal_s over the faster of two runs of the
    /// reference computation (the faster run drops a preemption).
    [[nodiscard]] double factor()
    {
        return nominal_s / std::min(run(), run());
    }

private:
    double run()
    {
        std::uint64_t a = 0x2545f4914f6cdd1dULL;
        std::uint64_t b = 0x9e3779b97f4a7c15ULL;
        std::uint64_t c = 0;
        std::uint64_t d = 0;
        const auto start = clock_type::now();
        for (int i = 0; i < 400000; ++i)
        {
            a ^= a << 13U;
            a ^= a >> 7U;
            a ^= a << 17U;
            b ^= b << 13U;
            b ^= b >> 7U;
            b ^= b << 17U;
            c += table[a & mask];
            d ^= table[b & mask] + c;
            table[(c ^ d) & mask] += a;
            if ((a & 7U) == 3U)
            {
                d += b;
            }
            else
            {
                c ^= a;
            }
        }
        return seconds_since(start);
    }

    static constexpr std::uint64_t mask = (256U << 10U) / sizeof(std::uint64_t) - 1;
    /// Written by every run, so the computation cannot be optimized away.
    std::vector<std::uint64_t> table = std::vector<std::uint64_t>(mask + 1, 0);
};

/// Times work at the nominal speed: each interval is scaled by the mean of
/// the probe factors read right before and right after it, and the factor
/// after one interval is the one before the next.
class speed_clock
{
public:
    speed_clock() : before{probe.factor()} {}

    /// Runs \p fn and returns its duration at the nominal speed.
    template <typename Fn>
    double time(Fn&& fn)
    {
        const auto start = clock_type::now();
        fn();
        const auto seconds = seconds_since(start);
        const auto after = probe.factor();
        last = 0.5 * (before + after);
        before = after;
        return seconds * last;
    }

    /// The factor applied to the last interval, for durations measured
    /// inside it.
    [[nodiscard]] double last_factor() const noexcept
    {
        return last;
    }

private:
    speed_probe probe;
    double before;
    double last{1.0};
};

// The time metrics are medians over a run: of each operation over the
// passes (generation and stores), of twenty windows (serving) and of the
// set-up bursts. The fastest instance was tried first. Once times are
// scaled, it picks the instance whose scaling erred most, and its spread
// over ten runs of table1_curated was 8-13% against 4-6% for the median.

/// Median of every operation over the passes: \p by_pass[p][i] is the
/// latency of operation i in pass p (every pass runs the same operations,
/// in the same order).
[[nodiscard]] inline std::vector<double> per_operation_median(const std::vector<std::vector<double>>& by_pass)
{
    std::vector<double> medians;
    for (std::size_t i = 0; i < by_pass.front().size(); ++i)
    {
        std::vector<double> instances;
        for (const auto& pass : by_pass)
        {
            instances.push_back(pass.at(i));
        }
        medians.push_back(median(std::move(instances)));
    }
    return medians;
}

[[nodiscard]] inline double ratio(const double part, const double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/// Peak resident set of this process so far. The workloads read it after
/// set-up and the first measured pass (or the serving phase): later passes
/// only add allocator noise, and their number depends on the speed of the
/// machine.
[[nodiscard]] inline double peak_rss_mb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / bytes_per_mb;
}

/// (Re)starts the task runtime pinned to \ref generation_threads and
/// launches its workers.
inline void start_pool()
{
    trt::shutdown();
    trt::set_thread_count(generation_threads);
    trt::parallel_for(0, 2 * generation_threads, 1, [](std::size_t, std::size_t) {});
}

/// The set-up time of a run at the nominal speed. Set-up is repeated in
/// bursts, spread over the run where the workload allows it; setup_s is the
/// median of all set-ups. The state of the last set-up is the one measured.
class setup_clock
{
public:
    template <typename Fn>
    void burst(const int repeats, Fn&& setup)
    {
        std::vector<double> times;
        speed_clock clock;
        static_cast<void>(clock.time(
            [&]
            {
                for (int i = 0; i < repeats; ++i)
                {
                    const auto start = clock_type::now();
                    setup();
                    times.push_back(seconds_since(start));
                }
            }));
        for (const auto t : times)
        {
            setups_s.push_back(t * clock.last_factor());
        }
    }

    [[nodiscard]] double seconds() const
    {
        return median(setups_s);
    }

private:
    std::vector<double> setups_s;
};

/// Repeats \p pass (at least once) while another one is expected to finish
/// within \p budget_s; each pass returns an object with a `wall_s` member.
template <typename Pass>
auto run_passes(const double budget_s, Pass&& pass)
{
    std::vector<decltype(pass())> passes;
    std::vector<double> walls;
    const auto start = clock_type::now();
    for (;;)
    {
        passes.push_back(pass());
        walls.push_back(passes.back().wall_s);
        if (seconds_since(start) + median(walls) > budget_s)
        {
            return passes;
        }
    }
}

/// The end-to-end metrics every workload reports.
inline void add_end_to_end(run_report& report, const double setup_s, const double throughput_ops,
                           const double latency_p50_s, const double latency_p99_s, const double rss_mb,
                           const std::uint64_t area_tiles)
{
    report.add("setup_s", setup_s, "s");
    report.add("throughput_ops", throughput_ops, "1/s");
    report.add("latency_p50_ms", latency_p50_s * 1e3, "ms");
    report.add("latency_p99_ms", latency_p99_s * 1e3, "ms");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("area_tiles", static_cast<double>(area_tiles), "tiles");
}

/// Serving-path layer values, per replayed request (zero elsewhere).
struct serve_layers
{
    double parse_us{0.0};
    double handle_us{0.0};
    double query_run_us{0.0};
    double query_render_us{0.0};
    double download_us{0.0};
    double socket_us{0.0};
    double snapshot_hit_ratio{0.0};
    double cache_hit_ratio{0.0};
};

/// The per-layer metrics every workload reports (zero for layers the
/// workload does not reach).
inline void add_layer_metrics(run_report& report, const tracer::summary& trace, const replay_counts& counts,
                              const double untraced_wall_s, const double disk_mb, const serve_layers& serve = {})
{
    const auto busy = [&](const char* layer)
    {
        const auto it = trace.busy_s.find(layer);
        return it == trace.busy_s.end() ? 0.0 : it->second;
    };
    const auto calls = [&](const char* layer)
    {
        const auto it = trace.calls.find(layer);
        return it == trace.calls.end() ? 0.0 : static_cast<double>(it->second);
    };

    report.add("network.busy_s", busy("network"), "s");
    report.add("physical_design.exact.busy_s", busy("physical_design.exact"), "s");
    report.add("physical_design.exact.calls", calls("physical_design.exact"), "count");
    report.add("physical_design.exact.solved_ratio",
               ratio(static_cast<double>(counts.exact_solved), calls("physical_design.exact")), "ratio");
    report.add("physical_design.nanoplacer.busy_s", busy("physical_design.nanoplacer"), "s");
    report.add("physical_design.nanoplacer.calls", calls("physical_design.nanoplacer"), "count");
    report.add("physical_design.nanoplacer.success_ratio",
               ratio(static_cast<double>(counts.nanoplacer_placed), calls("physical_design.nanoplacer")), "ratio");
    report.add("physical_design.plo.busy_s", busy("physical_design.plo"), "s");
    report.add("physical_design.plo.calls", calls("physical_design.plo"), "count");
    report.add("physical_design.plo.gain_ratio",
               ratio(static_cast<double>(counts.plo_gains), calls("physical_design.plo")), "ratio");
    report.add("physical_design.ortho.busy_s", busy("physical_design.ortho"), "s");
    report.add("physical_design.ortho.calls", calls("physical_design.ortho"), "count");
    report.add("physical_design.input_ordering.busy_s", busy("physical_design.input_ordering"), "s");
    report.add("physical_design.hexagonalization.busy_s", busy("physical_design.hexagonalization"), "s");
    report.add("verification.equivalence.busy_s", busy("verification.equivalence"), "s");
    report.add("verification.wave.busy_s", busy("verification.wave"), "s");
    report.add("io.fgl_write.busy_s", busy("io.fgl_write"), "s");
    report.add("io.fgl_write.mb", counts.fgl_write_bytes / bytes_per_mb, "MB");
    report.add("io.fgl_read.busy_s", busy("io.fgl_read"), "s");
    report.add("service.store.put_s", busy("service.store.put"), "s");
    report.add("service.store.save_s", busy("service.store.save"), "s");
    report.add("service.store.saves", static_cast<double>(counts.saves), "count");
    report.add("service.store.manifest_mb", counts.manifest_bytes / bytes_per_mb, "MB");
    report.add("service.store.disk_mb", disk_mb, "MB");
    report.add("service.journal.append_s", busy("service.journal.append"), "s");
    report.add("service.store.load_s", busy("service.store.load"), "s");
    report.add("service.query.engine_build_s", busy("service.query.engine_build"), "s");
    report.add("service.snapshot.build_s", busy("service.snapshot.build"), "s");
    report.add("service.query.run_us", serve.query_run_us, "us");
    report.add("service.query.render_us", serve.query_render_us, "us");
    report.add("service.server.parse_us", serve.parse_us, "us");
    report.add("service.server.handle_us", serve.handle_us, "us");
    report.add("service.server.download_us", serve.download_us, "us");
    report.add("service.server.socket_us", serve.socket_us, "us");
    report.add("service.server.snapshot_hit_ratio", serve.snapshot_hit_ratio, "ratio");
    report.add("service.server.cache_hit_ratio", serve.cache_hit_ratio, "ratio");
    report.add("traced_wall_s", trace.wall_s, "s");
    report.add("unattributed_s", trace.unattributed_s, "s");
    report.add("trace_overhead_ratio", ratio(trace.wall_s, untraced_wall_s) - 1.0, "ratio");
}

/// Writes the spans when asked to.
inline void write_spans(const tracer& tr, const run_options& options)
{
    if (!options.spans_path.empty())
    {
        tr.write_json(options.spans_path);
    }
}

}  // namespace e2e
