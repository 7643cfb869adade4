#pragma once

/// \file trace_export.hpp
/// \brief Chrome/Perfetto trace-event JSON export of the telemetry timeline:
///        every span closed while \ref mnt::tel::trace_recording was on
///        becomes one complete ("ph":"X") event with microsecond timestamps,
///        a process id, a dense thread id and an optional `args.detail`
///        string — loadable in `chrome://tracing`, Perfetto UI and Speedscope.
///
/// Activation paths:
///
/// - `MNT_TRACE_OUT=<path>` in the environment turns recording on at process
///   start; the CLIs call \ref export_trace_if_requested on exit to write
///   the file.
/// - `--trace-out <path>` on mnt_bench_cli / mnt_bench_serve does the same
///   without touching the environment (they call
///   \ref set_trace_recording(true) up front and
///   \ref write_chrome_trace_file at the end).
///
/// The emitted document is the "JSON Object Format" of the trace-event spec:
/// a top-level object with a `traceEvents` array (metadata `ph:"M"`
/// thread_name/process_name events first, then the spans),
/// `displayTimeUnit`, and an `otherData` object carrying build provenance
/// and the dropped-event count.

#include <filesystem>
#include <ostream>
#include <string>

namespace mnt::tel
{

/// Options for the trace writer.
struct chrome_trace_options
{
    /// Process name shown in the viewer's process header.
    std::string process_name{"mnt_bench"};
};

/// Writes the current timeline buffer as Chrome trace-event JSON to \p out.
/// Valid (and loadable) even when the buffer is empty.
void write_chrome_trace(std::ostream& out, const chrome_trace_options& options = {});

/// \ref write_chrome_trace into a string (tests, HTTP handlers).
[[nodiscard]] std::string chrome_trace_string(const chrome_trace_options& options = {});

/// \ref write_chrome_trace into a file (truncating).
///
/// \throws mnt::mnt_error when the file cannot be opened or written
void write_chrome_trace_file(const std::filesystem::path& path, const chrome_trace_options& options = {});

/// When the MNT_TRACE_OUT environment variable names a path and the timeline
/// recorded at least one event, writes the trace there and returns the path;
/// returns an empty path otherwise. Errors are reported to stderr, not
/// thrown — trace export must never turn a successful run into a failure.
std::filesystem::path export_trace_if_requested();

}  // namespace mnt::tel
