#pragma once

/// \file trace.hpp
/// \brief Bench-side span recorder of the traced replay. Spans are kept in
///        memory and summarized (or written out) when the run ends.
///
/// A span's self time is its duration minus the durations of its children.
/// Layer spans credit their self time to the layer they name; step spans
/// (pass, row, job, request) are structure only, and their self time is the
/// run's unattributed time.
///
/// Some public functions call another layer internally (put_layout writes
/// .fgl, load reads it). That inner layer is timed by a separate call on the
/// same input (\ref tracer::inner) and credited to it as a child of the
/// outer span (\ref tracer::attribute). The separate calls, and any other
/// bookkeeping wrapped in \ref tracer::untimed, are excluded from the traced
/// wall time, so layer self times plus unattributed time add up to exactly
/// the traced wall time. A disabled tracer opens no spans and makes no
/// separate calls.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e
{

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(const clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

class tracer
{
public:
    explicit tracer(const bool enabled) : on{enabled} {}

    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;

    /// An open span; closes when it goes out of scope.
    class scope
    {
    public:
        scope(tracer* owner, const int index) : owner{owner}, index{index} {}
        ~scope()
        {
            if (owner != nullptr)
            {
                owner->spans[static_cast<std::size_t>(index)].end_s = owner->now_s();
                owner->current = owner->spans[static_cast<std::size_t>(index)].parent;
            }
        }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

        /// Span index for \ref tracer::attribute (-1 when tracing is off).
        [[nodiscard]] int id() const noexcept
        {
            return index;
        }

    private:
        tracer* owner;
        int index;
    };

    [[nodiscard]] bool enabled() const noexcept
    {
        return on;
    }

    /// Opens a span whose self time is busy time of layer \p name.
    [[nodiscard]] scope layer(const char* name, const std::uint64_t id = 0)
    {
        return open(name, true, id);
    }

    /// Opens a structural span (its self time is unattributed).
    [[nodiscard]] scope step(const char* name, const std::uint64_t id = 0)
    {
        return open(name, false, id);
    }

    /// Runs \p fn and excludes its duration from the wall time (also when
    /// tracing is off, so an untraced replay can be timed the same way).
    /// Call only where a step span (not a layer span) is open.
    template <typename Fn>
    void untimed(Fn&& fn)
    {
        const auto start = clock_type::now();
        fn();
        excluded_s += seconds_since(start);
    }

    /// Total time excluded so far by \ref untimed and \ref inner.
    [[nodiscard]] double excluded() const noexcept
    {
        return excluded_s;
    }

    /// Runs \p fn only when tracing and returns its duration, which is
    /// excluded from the traced wall time: the separate call that times an
    /// inner layer. Call only where a step span is open.
    template <typename Fn>
    double inner(Fn&& fn)
    {
        if (!on)
        {
            return 0.0;
        }
        const auto start = clock_type::now();
        fn();
        const auto seconds = seconds_since(start);
        excluded_s += seconds;
        return seconds;
    }

    /// Credits \p seconds of span \p parent's duration to inner layer \p name.
    void attribute(const int parent, const char* name, const double seconds)
    {
        if (!on || parent < 0)
        {
            return;
        }
        const auto start = spans[static_cast<std::size_t>(parent)].start_s;
        spans.push_back({name, true, true, parent, spans[static_cast<std::size_t>(parent)].id, start, start + seconds});
    }

    /// Per-layer self times and call counts of everything recorded so far.
    struct summary
    {
        std::map<std::string, double> busy_s;
        std::map<std::string, std::size_t> calls;
        /// Root span durations minus excluded time.
        double wall_s{0.0};
        /// Self time of step spans minus excluded time.
        double unattributed_s{0.0};
    };

    [[nodiscard]] summary summarize() const
    {
        // a separately timed inner layer can read longer than its share of
        // the outer call; its credit is then scaled down so that no self
        // time is negative
        std::vector<double> real_children_s(spans.size(), 0.0);
        std::vector<double> inner_children_s(spans.size(), 0.0);
        for (const auto& s : spans)
        {
            if (s.parent >= 0)
            {
                (s.inner ? inner_children_s : real_children_s)[static_cast<std::size_t>(s.parent)] +=
                    s.end_s - s.start_s;
            }
        }
        const auto duration = [&](const std::size_t i)
        {
            const auto& s = spans[i];
            if (!s.inner)
            {
                return s.end_s - s.start_s;
            }
            const auto parent = static_cast<std::size_t>(s.parent);
            const auto room = spans[parent].end_s - spans[parent].start_s - real_children_s[parent];
            const auto credit = inner_children_s[parent];
            return room >= credit ? s.end_s - s.start_s : (s.end_s - s.start_s) * std::max(room, 0.0) / credit;
        };
        std::vector<double> children_s(spans.size(), 0.0);
        for (std::size_t i = 0; i < spans.size(); ++i)
        {
            if (spans[i].parent >= 0)
            {
                children_s[static_cast<std::size_t>(spans[i].parent)] += duration(i);
            }
        }
        summary result{};
        for (std::size_t i = 0; i < spans.size(); ++i)
        {
            const auto& s = spans[i];
            const auto self_s = duration(i) - children_s[i];
            if (s.layer)
            {
                result.busy_s[s.name] += self_s;
                ++result.calls[s.name];
            }
            else
            {
                result.unattributed_s += self_s;
            }
            if (s.parent < 0)
            {
                result.wall_s += s.end_s - s.start_s;
            }
        }
        result.wall_s -= excluded_s;
        result.unattributed_s -= excluded_s;
        return result;
    }

    /// Writes every span as one JSON array (times in microseconds from the
    /// tracer's creation; `inner` marks time credited by \ref attribute).
    void write_json(const std::string& path) const
    {
        std::ofstream out{path};
        out << "[";
        for (std::size_t i = 0; i < spans.size(); ++i)
        {
            const auto& s = spans[i];
            out << (i == 0 ? "\n" : ",\n") << "{\"span\":" << i << ",\"name\":\"" << s.name
                << "\",\"layer\":" << (s.layer ? "true" : "false") << ",\"inner\":" << (s.inner ? "true" : "false")
                << ",\"parent\":" << s.parent << ",\"id\":" << s.id << ",\"start_us\":" << s.start_s * 1e6
                << ",\"end_us\":" << s.end_s * 1e6 << "}";
        }
        out << "\n]\n";
    }

private:
    struct record
    {
        const char* name;  ///< string literal
        bool layer;
        bool inner;
        int parent;
        std::uint64_t id;  ///< row, job or request id
        double start_s;
        double end_s;
    };

    [[nodiscard]] double now_s() const
    {
        return std::chrono::duration<double>(clock_type::now() - origin).count();
    }

    scope open(const char* name, const bool is_layer, const std::uint64_t id)
    {
        if (!on)
        {
            return scope{nullptr, -1};
        }
        const auto index = static_cast<int>(spans.size());
        spans.push_back({name, is_layer, false, current, id, now_s(), 0.0});
        current = index;
        return scope{this, index};
    }

    bool on;
    clock_type::time_point origin{clock_type::now()};
    std::vector<record> spans;
    int current{-1};
    double excluded_s{0.0};
};

}  // namespace e2e
