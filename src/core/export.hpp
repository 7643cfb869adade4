#pragma once

/// \file export.hpp
/// \brief File export of catalog content — the "download" function of the
///        MNT Bench website: benchmark networks as Verilog and layouts as
///        .fgl.

#include "core/catalog.hpp"

#include <filesystem>
#include <string>
#include <vector>

namespace mnt::cat
{

/// Result of an export run.
struct export_report
{
    std::vector<std::filesystem::path> written;
    std::vector<std::string> skipped;  ///< human-readable skip reasons
};

/// Sanitizes a benchmark/algorithm label into a filename component.
[[nodiscard]] std::string sanitize_filename(const std::string& raw);

/// Writes the selected layouts and their networks into \p directory,
/// creating it if needed. File names follow
/// `<set>_<name>_<library>_<clocking>_<algorithm>.<ext>`.
[[nodiscard]] export_report export_selection(const catalog& cat,
                                             const std::vector<const layout_record*>& selection,
                                             const std::filesystem::path& directory);

}  // namespace mnt::cat
