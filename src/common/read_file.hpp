#pragma once

/// \file read_file.hpp
/// \brief The library's one whole-file reader: store blobs and manifests,
///        shard merges, the run journal, and the .fgl and Verilog file
///        readers all read through it.

#include <filesystem>
#include <string>

namespace mnt
{

/// Reads the whole file at \p path into a string: one open, one fstat, and
/// read() calls into a string sized from the fstat once. A file that grew
/// after the fstat is read on to its end; EINTR is retried.
///
/// \throws mnt::mnt_error naming \p path when the file cannot be opened or
///         read (a missing file, a directory, too many open files, ...)
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

}  // namespace mnt
