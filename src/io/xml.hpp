#pragma once

/// \file xml.hpp
/// \brief Minimal XML DOM used by the .fgl file format. Supports elements,
///        attributes, text content, comments, and the XML declaration — the
///        subset a human-readable layout exchange format needs; DTDs,
///        namespaces and CDATA are out of scope.

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mnt::io::xml
{

/// An XML element node.
struct element
{
    std::string tag;
    std::map<std::string, std::string> attributes;
    /// Concatenated character data directly inside this element (trimmed).
    std::string text;
    std::vector<std::unique_ptr<element>> children;
    /// 1-based source line of the element's opening tag; 0 for elements
    /// built programmatically (writers). Readers thread it into their
    /// parse_error diagnostics.
    std::size_t line{0};

    /// First child with the given tag, or nullptr.
    [[nodiscard]] const element* child(const std::string& child_tag) const;

    /// All children with the given tag.
    [[nodiscard]] std::vector<const element*> children_of(const std::string& child_tag) const;

    /// Text of the first child with the given tag.
    ///
    /// \throws mnt::parse_error if the child does not exist
    [[nodiscard]] const std::string& child_text(const std::string& child_tag) const;

    /// Adds a child element and returns a reference to it.
    element& add(const std::string& child_tag);

    /// Adds a child element containing only text.
    element& add(const std::string& child_tag, const std::string& content);
};

/// Parses an XML document; returns its root element.
///
/// \throws mnt::parse_error on malformed input (with line numbers)
[[nodiscard]] std::unique_ptr<element> parse(const std::string& document);

/// Serializes \p root as an indented XML document (with declaration).
[[nodiscard]] std::string serialize(const element& root);

/// Escapes &, <, >, ", ' for use in text content or attribute values.
[[nodiscard]] std::string escape(const std::string& raw);

}  // namespace mnt::io::xml
