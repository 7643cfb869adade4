#pragma once

/// \file xml.hpp
/// \brief Minimal XML reader used by the .fgl file format. Supports elements,
///        attributes, text content, comments, and the XML declaration — the
///        subset a human-readable layout exchange format needs; DTDs,
///        namespaces and CDATA are out of scope. The .fgl writer appends its
///        documents directly and shares only \ref escape with the reader.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mnt::io::xml
{

/// One element of a parsed \ref document. Elements are stored flat, in
/// document order: each element is followed by its subtree, children first
/// child first. A node therefore reaches its children through its own
/// \ref subtree count, which is only meaningful inside its document's
/// array: take nodes by reference or pointer, never by copy.
struct node
{
    /// Tag name, a view into the parsed text.
    std::string_view tag;
    /// Character data directly inside this element (concatenated across
    /// child elements and comments, trimmed, entity references decoded).
    std::string_view text;
    /// 1-based source line of the element's opening tag. Readers thread it
    /// into their parse_error diagnostics.
    std::size_t line{0};
    /// Number of nodes in this element's subtree, itself included.
    std::size_t subtree{1};

    /// First child with the given tag, or nullptr.
    [[nodiscard]] const node* child(std::string_view child_tag) const;

    /// All children with the given tag, in document order.
    [[nodiscard]] std::vector<const node*> children_of(std::string_view child_tag) const;

    /// Text of the first child with the given tag.
    ///
    /// \throws mnt::parse_error if the child does not exist
    [[nodiscard]] std::string_view child_text(std::string_view child_tag) const;
};

/// One attribute: its element's index in \ref document::nodes, its name and
/// its decoded value.
struct attribute
{
    std::size_t owner{0};
    std::string_view name;
    std::string_view value;
};

/// A parsed document. Tags, texts and attribute values are views into the
/// text given to \ref parse, which must outlive the document, or into
/// \ref decoded where decoding changed the bytes. A document can be moved
/// (every view stays valid) but not copied.
struct document
{
    /// Every element in document order; the root is the first.
    std::vector<node> nodes;
    std::vector<attribute> attributes;
    /// Texts and values that differ from their source bytes.
    std::vector<std::unique_ptr<std::string>> decoded;

    [[nodiscard]] const node& root() const;

    /// Value of the attribute \p name of \p element (the last one when the
    /// name repeats), or nullopt.
    [[nodiscard]] std::optional<std::string_view> attribute_of(const node& element, std::string_view name) const;
};

/// Parses an XML document without copying it.
///
/// \throws mnt::parse_error on malformed input (with line numbers)
[[nodiscard]] document parse(std::string_view text);

/// Escapes &, <, >, ", ' for use in text content or attribute values.
[[nodiscard]] std::string escape(std::string_view raw);

}  // namespace mnt::io::xml
