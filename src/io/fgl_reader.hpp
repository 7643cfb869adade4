#pragma once

/// \file fgl_reader.hpp
/// \brief Validating reader for the .fgl gate-level layout format (see
///        \ref fgl_writer.hpp for the format description).
///
/// The reader is strict: missing elements, unknown gate types, out-of-bounds
/// locations, overfull fanin lists, or references to empty tiles raise
/// mnt::parse_error / mnt::design_rule_error. Optionally a full design rule
/// check can be run after loading.

#include "layout/gate_level_layout.hpp"

#include <filesystem>
#include <string>

namespace mnt::io
{

/// Options for \ref read_fgl_string.
struct fgl_reader_options
{
    /// Run \ref mnt::ver::gate_level_drc after loading and throw
    /// mnt::design_rule_error if it reports errors.
    bool run_drc{false};
};

/// Parses an .fgl document from an in-memory string, in place.
///
/// \throws mnt::parse_error on malformed documents,
///         mnt::design_rule_error on semantic violations
[[nodiscard]] lyt::gate_level_layout read_fgl_string(const std::string& document,
                                                     const fgl_reader_options& options = {});

/// Reads the file at \p path (\ref mnt::read_file) and parses it.
///
/// \throws mnt::mnt_error naming the path when the file cannot be read;
///         otherwise as \ref read_fgl_string
[[nodiscard]] lyt::gate_level_layout read_fgl_file(const std::filesystem::path& path,
                                                   const fgl_reader_options& options = {});

}  // namespace mnt::io
