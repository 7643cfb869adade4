#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mnt;

namespace
{

/// Every test starts from an enabled, empty registry and leaves telemetry
/// disabled again (the registry is process-global).
class TelemetryTest : public ::testing::Test
{
protected:
    void SetUp() override
    {
        tel::set_enabled(true);
        tel::registry::instance().reset();
    }

    void TearDown() override
    {
        tel::registry::instance().reset();
        tel::set_enabled(false);
    }
};

std::uint64_t counter_value_of(const tel::run_report& report, const std::string& name)
{
    for (const auto& c : report.counters)
    {
        if (c.name == name)
        {
            return c.value;
        }
    }
    return 0;
}

const tel::span_node* child_named(const tel::span_node& parent, const std::string& name)
{
    for (const auto& child : parent.children)
    {
        if (child->name == name)
        {
            return child.get();
        }
    }
    return nullptr;
}

}  // namespace

TEST_F(TelemetryTest, StopwatchIsMonotonic)
{
    const tel::stopwatch watch;
    const auto first = watch.seconds();
    const auto second = watch.seconds();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(second, first);
}

TEST_F(TelemetryTest, CounterMath)
{
    tel::counter c;
    EXPECT_EQ(c.value(), 0U);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42U);
    c.reset();
    EXPECT_EQ(c.value(), 0U);
}

TEST_F(TelemetryTest, GaugeKeepsLastValue)
{
    tel::gauge g;
    g.set(1.5);
    g.set(-3.25);
    EXPECT_DOUBLE_EQ(g.value(), -3.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketIndexBoundaries)
{
    using h = tel::histogram;
    // the [1, 2) bucket sits at zero_bucket; powers of two mark boundaries
    EXPECT_EQ(h::bucket_index(1.0), static_cast<std::size_t>(h::zero_bucket));
    EXPECT_EQ(h::bucket_index(1.999), static_cast<std::size_t>(h::zero_bucket));
    EXPECT_EQ(h::bucket_index(2.0), static_cast<std::size_t>(h::zero_bucket) + 1);
    EXPECT_EQ(h::bucket_index(0.5), static_cast<std::size_t>(h::zero_bucket) - 1);
    // non-positive and NaN land in the first bucket
    EXPECT_EQ(h::bucket_index(0.0), 0U);
    EXPECT_EQ(h::bucket_index(-1.0), 0U);
    EXPECT_EQ(h::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0U);
    // out-of-grid magnitudes clamp to the first / last bucket
    EXPECT_EQ(h::bucket_index(1e-300), 0U);
    EXPECT_EQ(h::bucket_index(1e300), h::num_buckets - 1);
    EXPECT_EQ(h::bucket_index(std::numeric_limits<double>::infinity()), h::num_buckets - 1);
}

TEST_F(TelemetryTest, HistogramBucketBoundsBracketTheirValues)
{
    using h = tel::histogram;
    EXPECT_DOUBLE_EQ(h::bucket_lower(0), 0.0);
    EXPECT_DOUBLE_EQ(h::bucket_lower(static_cast<std::size_t>(h::zero_bucket)), 1.0);
    EXPECT_DOUBLE_EQ(h::bucket_upper(static_cast<std::size_t>(h::zero_bucket)), 2.0);
    EXPECT_TRUE(std::isinf(h::bucket_upper(h::num_buckets - 1)));

    for (const double value : {7.5e-10, 1e-6, 0.75, 1.0, 3.14, 1234.5})
    {
        const auto index = h::bucket_index(value);
        EXPECT_LE(h::bucket_lower(index), value) << "value " << value;
        EXPECT_LT(value, h::bucket_upper(index)) << "value " << value;
    }
}

TEST_F(TelemetryTest, HistogramRecordTracksStats)
{
    tel::histogram h;
    EXPECT_EQ(h.count(), 0U);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histogram reports 0
    EXPECT_DOUBLE_EQ(h.max(), 0.0);

    h.record(1.5);
    h.record(0.25);
    h.record(6.0);
    EXPECT_EQ(h.count(), 3U);
    EXPECT_DOUBLE_EQ(h.sum(), 7.75);
    EXPECT_DOUBLE_EQ(h.min(), 0.25);
    EXPECT_DOUBLE_EQ(h.max(), 6.0);
    EXPECT_EQ(h.bucket_count(tel::histogram::bucket_index(1.5)), 1U);
    EXPECT_EQ(h.bucket_count(tel::histogram::bucket_index(0.25)), 1U);
    EXPECT_EQ(h.bucket_count(tel::histogram::bucket_index(6.0)), 1U);

    h.reset();
    EXPECT_EQ(h.count(), 0U);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(TelemetryTest, HistogramMerge)
{
    tel::histogram a;
    tel::histogram b;
    a.record(1.0);
    a.record(4.0);
    b.record(0.125);
    b.record(16.0);
    b.record(16.5);

    a.merge(b);
    EXPECT_EQ(a.count(), 5U);
    EXPECT_DOUBLE_EQ(a.sum(), 37.625);
    EXPECT_DOUBLE_EQ(a.min(), 0.125);
    EXPECT_DOUBLE_EQ(a.max(), 16.5);
    EXPECT_EQ(a.bucket_count(tel::histogram::bucket_index(16.0)), 2U);

    // merging an empty histogram must not disturb min/max
    const tel::histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 5U);
    EXPECT_DOUBLE_EQ(a.min(), 0.125);
    EXPECT_DOUBLE_EQ(a.max(), 16.5);
}

TEST_F(TelemetryTest, DisabledPathRecordsNothing)
{
    tel::set_enabled(false);
    tel::count("disabled.counter", 5);
    tel::observe("disabled.histogram", 1.0);
    tel::set_gauge("disabled.gauge", 2.0);
    {
        MNT_SPAN("disabled/span");
    }
    tel::set_enabled(true);

    const auto report = tel::capture_report();
    EXPECT_EQ(counter_value_of(report, "disabled.counter"), 0U);
    ASSERT_NE(report.trace, nullptr);
    EXPECT_EQ(child_named(*report.trace, "disabled/span"), nullptr);
}

TEST_F(TelemetryTest, SpansNestAndAggregate)
{
    for (int i = 0; i < 3; ++i)
    {
        MNT_SPAN("outer");
        for (int j = 0; j < 2; ++j)
        {
            MNT_SPAN("inner");
        }
    }
    {
        MNT_SPAN("other");
    }

    const auto report = tel::capture_report();
    ASSERT_NE(report.trace, nullptr);
    const auto* outer = child_named(*report.trace, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->calls, 3U);
    EXPECT_GE(outer->seconds, 0.0);

    // same-named spans under the same parent fold into one node
    ASSERT_EQ(outer->children.size(), 1U);
    EXPECT_EQ(outer->children.front()->name, "inner");
    EXPECT_EQ(outer->children.front()->calls, 6U);

    const auto* other = child_named(*report.trace, "other");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->calls, 1U);
    EXPECT_EQ(other->children.size(), 0U);
}

TEST_F(TelemetryTest, ResetKeepsInstrumentReferencesValid)
{
    auto& c = tel::registry::instance().get_counter("sticky.counter");
    c.add(7);
    tel::registry::instance().reset();
    EXPECT_EQ(c.value(), 0U);
    c.add(3);  // the cached reference still feeds the registry
    EXPECT_EQ(counter_value_of(tel::capture_report(), "sticky.counter"), 3U);
}

TEST_F(TelemetryTest, SpanOpenAcrossResetRetiresSilently)
{
    const auto open_and_reset = []
    {
        MNT_SPAN("doomed");
        tel::registry::instance().reset();
    };  // span closes after the reset: it must not resurrect itself
    open_and_reset();

    const auto report = tel::capture_report();
    ASSERT_NE(report.trace, nullptr);
    EXPECT_EQ(child_named(*report.trace, "doomed"), nullptr);
}

TEST_F(TelemetryTest, JsonReportContainsAllSections)
{
    tel::count("json.counter", 11);
    tel::set_gauge("json.gauge", 2.5);
    tel::observe("json.histogram", 1.5);
    {
        MNT_SPAN("json/outer");
        MNT_SPAN("json/inner");
    }

    const auto json = tel::report_json_string(tel::capture_report());
    EXPECT_NE(json.find("\"schema\": \"mnt-telemetry-report/2\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\": \"json.counter\", \"value\": 11}"), std::string::npos);
    EXPECT_NE(json.find("{\"name\": \"json.gauge\", \"value\": 2.5}"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"json.histogram\", \"count\": 1"), std::string::npos);
    // sparse bucket export: exactly the [1, 2) bucket is present
    EXPECT_NE(json.find("{\"lo\": 1, \"hi\": 2, \"count\": 1}"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"json/outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"json/inner\""), std::string::npos);
    // nesting: the inner span is listed inside a children array
    EXPECT_LT(json.find("\"children\": ["), json.find("\"name\": \"json/inner\""));
}

TEST_F(TelemetryTest, JsonReportReplacesInvalidUtf8)
{
    tel::add_event({"utf8", "label", "kind", "bad byte \xff here", 0.0});
    {
        MNT_SPAN("span \xff name");
    }

    const auto json = tel::report_json_string(tel::capture_report());
    // the report is strict JSON in UTF-8: a stray 0xFF byte must not leak
    // through, it becomes an escaped U+FFFD like in every other JSON writer
    EXPECT_EQ(json.find('\xff'), std::string::npos);
    EXPECT_NE(json.find("bad byte \\ufffd here"), std::string::npos);
    EXPECT_NE(json.find("span \\ufffd name"), std::string::npos);
}

TEST_F(TelemetryTest, JsonFileRoundTrip)
{
    tel::count("file.counter", 4);
    const auto report = tel::capture_report();
    const auto path = std::filesystem::temp_directory_path() / "mnt_telemetry_test_report.json";

    tel::write_report_json_file(report, path);
    std::ifstream file{path};
    ASSERT_TRUE(file.good());
    std::ostringstream buffer;
    buffer << file.rdbuf();
    EXPECT_EQ(buffer.str(), tel::report_json_string(report));
    std::filesystem::remove(path);
}

TEST_F(TelemetryTest, TextReportListsInstruments)
{
    tel::count("text.counter", 9);
    {
        MNT_SPAN("text/span");
    }
    std::ostringstream out;
    tel::write_report_text(tel::capture_report(), out);
    const auto text = out.str();
    EXPECT_NE(text.find("text.counter"), std::string::npos);
    EXPECT_NE(text.find("text/span"), std::string::npos);
    EXPECT_NE(text.find("calls=1"), std::string::npos);
}

TEST_F(TelemetryTest, ConcurrentRecordingIsLossless)
{
    constexpr int num_threads = 4;
    constexpr int per_thread = 2500;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t)
    {
        threads.emplace_back(
            []
            {
                auto& c = tel::registry::instance().get_counter("threads.counter");
                auto& h = tel::registry::instance().get_histogram("threads.histogram");
                for (int i = 0; i < per_thread; ++i)
                {
                    c.add();
                    h.record(1.0);
                    MNT_SPAN("threads/span");
                }
            });
    }
    for (auto& t : threads)
    {
        t.join();
    }

    const auto report = tel::capture_report();
    EXPECT_EQ(counter_value_of(report, "threads.counter"),
              static_cast<std::uint64_t>(num_threads) * per_thread);
    const auto* span = child_named(*report.trace, "threads/span");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->calls, static_cast<std::uint64_t>(num_threads) * per_thread);
}
