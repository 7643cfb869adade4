#pragma once

/// \file json_export.hpp
/// \brief Machine-readable catalog index — the JSON metadata the MNT Bench
///        website serves next to the downloadable benchmark files, so that
///        scripts (like the original's pip package) can query the layout
///        collection without parsing tables.

#include "core/catalog.hpp"
#include "core/filters.hpp"

#include <ostream>
#include <string>
#include <vector>

namespace mnt::cat
{

/// Writes the catalog index as a JSON document:
///
/// \code{.json}
/// {
///   "networks": [ {"set": ..., "name": ..., "inputs": n, ...}, ... ],
///   "layouts":  [ {"set": ..., "library": ..., "area": n, ...}, ... ],
///   "failures": [ {"set": ..., "combination": "NPR@USE", "kind": "timeout",
///                  "message": ..., "elapsed_s": t, "attempts": n}, ... ]
/// }
/// \endcode
void write_catalog_json(const catalog& cat, std::ostream& output);

/// Serializes only \p selection (e.g. a filter result) plus the referenced
/// networks.
void write_selection_json(const catalog& cat, const std::vector<const layout_record*>& selection,
                          std::ostream& output);

/// Convenience: whole catalog into a string.
[[nodiscard]] std::string catalog_json_string(const catalog& cat);

}  // namespace mnt::cat
