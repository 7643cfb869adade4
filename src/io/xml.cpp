#include "io/xml.hpp"

#include "common/types.hpp"

#include <algorithm>

namespace mnt::io::xml
{

const node* node::child(const std::string_view child_tag) const
{
    for (const node* c = this + 1; c < this + subtree; c += c->subtree)
    {
        if (c->tag == child_tag)
        {
            return c;
        }
    }
    return nullptr;
}

std::vector<const node*> node::children_of(const std::string_view child_tag) const
{
    std::vector<const node*> result;
    for (const node* c = this + 1; c < this + subtree; c += c->subtree)
    {
        if (c->tag == child_tag)
        {
            result.push_back(c);
        }
    }
    return result;
}

std::string_view node::child_text(const std::string_view child_tag) const
{
    const auto* c = child(child_tag);
    if (c == nullptr)
    {
        throw parse_error{"missing element <" + std::string{child_tag} + "> inside <" + std::string{tag} + ">", line};
    }
    return c->text;
}

const node& document::root() const
{
    return nodes.front();
}

std::optional<std::string_view> document::attribute_of(const node& element, const std::string_view name) const
{
    std::optional<std::string_view> value;
    for (const auto& a : attributes)
    {
        if (&nodes[a.owner] == &element && a.name == name)
        {
            value = a.value;
        }
    }
    return value;
}

namespace
{

/// Whitespace as std::isspace sees it in the "C" locale.
bool is_space(const char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Name characters: "C"-locale alphanumerics and _ - : .
bool is_name_char(const char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' || c == '-' ||
           c == ':' || c == '.';
}

bool all_space(const std::string_view s)
{
    return std::all_of(s.begin(), s.end(), is_space);
}

std::string_view trim_left(std::string_view s)
{
    while (!s.empty() && is_space(s.front()))
    {
        s.remove_prefix(1);
    }
    return s;
}

std::string_view trim_right(std::string_view s)
{
    while (!s.empty() && is_space(s.back()))
    {
        s.remove_suffix(1);
    }
    return s;
}

/// Decodes the five predefined entity references; anything else after an
/// '&' stays as it is.
std::string unescape(const std::string_view s)
{
    static constexpr std::pair<std::string_view, char> entities[] = {
        {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'}, {"&apos;", '\''}};
    std::string out;
    out.reserve(s.size());
    std::size_t i = 0;
    while (i < s.size())
    {
        bool decoded = false;
        if (s[i] == '&')
        {
            for (const auto& [entity, c] : entities)
            {
                if (s.compare(i, entity.size(), entity) == 0)
                {
                    out.push_back(c);
                    i += entity.size();
                    decoded = true;
                    break;
                }
            }
        }
        if (!decoded)
        {
            out.push_back(s[i]);
            ++i;
        }
    }
    return out;
}

class parser
{
public:
    parser(const std::string_view text, document& out) : doc{text}, out{out} {}

    void parse_document()
    {
        skip_misc();
        parse_root();
        skip_misc();
        if (pos < doc.size())
        {
            throw parse_error{"content after the root element", line};
        }
    }

private:
    /// An element whose closing tag is still ahead.
    struct open_element
    {
        std::size_t index;
        /// Its first entry in \ref segments.
        std::size_t first_segment;
    };

    void skip_whitespace()
    {
        while (pos < doc.size() && is_space(doc[pos]))
        {
            if (doc[pos] == '\n')
            {
                ++line;
            }
            ++pos;
        }
    }

    /// Skips whitespace, comments, the XML declaration and processing
    /// instructions.
    void skip_misc()
    {
        while (true)
        {
            skip_whitespace();
            if (match("<?"))
            {
                const auto end = doc.find("?>", pos);
                if (end == std::string_view::npos)
                {
                    throw parse_error{"unterminated XML declaration", line};
                }
                count_lines(pos, end);
                pos = end + 2;
                continue;
            }
            if (match("<!--"))
            {
                const auto end = doc.find("-->", pos);
                if (end == std::string_view::npos)
                {
                    throw parse_error{"unterminated comment", line};
                }
                count_lines(pos, end);
                pos = end + 3;
                continue;
            }
            return;
        }
    }

    void count_lines(const std::size_t from, const std::size_t to)
    {
        line += static_cast<std::size_t>(std::count(doc.begin() + static_cast<std::ptrdiff_t>(from),
                                                    doc.begin() + static_cast<std::ptrdiff_t>(to), '\n'));
    }

    bool match(const std::string_view s)
    {
        if (doc.compare(pos, s.size(), s) == 0)
        {
            pos += s.size();
            return true;
        }
        return false;
    }

    char peek() const
    {
        return pos < doc.size() ? doc[pos] : '\0';
    }

    std::string_view parse_name()
    {
        const auto start = pos;
        while (pos < doc.size() && is_name_char(doc[pos]))
        {
            ++pos;
        }
        if (pos == start)
        {
            throw parse_error{"expected a name", line};
        }
        return doc.substr(start, pos - start);
    }

    /// \p s itself, or a decoded copy kept by the document when \p s holds
    /// an entity reference.
    std::string_view decode(const std::string_view s)
    {
        if (s.find('&') == std::string_view::npos)
        {
            return s;
        }
        return keep(unescape(s));
    }

    std::string_view keep(std::string s)
    {
        out.decoded.push_back(std::make_unique<std::string>(std::move(s)));
        return *out.decoded.back();
    }

    /// Reads an opening tag and its attributes, appending the element to
    /// the document. Returns false for an empty-element tag (`<tag/>`).
    bool open_tag()
    {
        if (!match("<"))
        {
            throw parse_error{"expected '<'", line};
        }
        const auto index = out.nodes.size();
        out.nodes.push_back({});
        out.nodes.back().line = line;
        out.nodes.back().tag = parse_name();

        while (true)
        {
            skip_whitespace();
            if (match("/>"))
            {
                return false;
            }
            if (match(">"))
            {
                return true;
            }
            const auto name = parse_name();
            skip_whitespace();
            if (!match("="))
            {
                throw parse_error{"expected '=' after attribute '" + std::string{name} + "'", line};
            }
            skip_whitespace();
            const char quote = peek();
            if (quote != '"' && quote != '\'')
            {
                throw parse_error{"expected quoted attribute value", line};
            }
            ++pos;
            const auto end = doc.find(quote, pos);
            if (end == std::string_view::npos)
            {
                throw parse_error{"unterminated attribute value", line};
            }
            out.attributes.push_back({index, name, decode(doc.substr(pos, end - pos))});
            count_lines(pos, end);
            pos = end + 1;
        }
    }

    /// The text of an element whose character data are segments[first..]:
    /// their concatenation, trimmed and decoded. Only the first segment's
    /// leading and the last segment's trailing whitespace are trimmed, so
    /// the common case (one segment) stays a view into the document.
    std::string_view element_text(const std::size_t first)
    {
        if (first == segments.size())
        {
            return {};
        }
        auto last = segments.size() - 1;
        while (all_space(segments[last]))
        {
            --last;  // stops at first, which holds non-space characters
        }
        if (last == first)
        {
            return decode(trim_right(trim_left(segments[first])));
        }
        std::string joined{trim_left(segments[first])};
        for (auto i = first + 1; i < last; ++i)
        {
            joined += segments[i];
        }
        joined += trim_right(segments[last]);
        return keep(unescape(joined));
    }

    void parse_root()
    {
        std::vector<open_element> open;
        if (open_tag())
        {
            open.push_back({0, 0});
        }
        while (!open.empty())
        {
            const auto& current = open.back();
            // character data up to the next markup; whitespace before the
            // element's first non-space data would be trimmed, so it is
            // not recorded
            const auto markup = std::min(doc.find('<', pos), doc.size());
            if (markup > pos)
            {
                const auto run = doc.substr(pos, markup - pos);
                count_lines(pos, markup);
                if (segments.size() > current.first_segment || !all_space(run))
                {
                    segments.push_back(run);
                }
                pos = markup;
            }
            if (pos >= doc.size())
            {
                throw parse_error{"unterminated element <" + std::string{out.nodes[current.index].tag} + ">", line};
            }
            if (doc.compare(pos, 4, "<!--") == 0)
            {
                const auto end = doc.find("-->", pos);
                if (end == std::string_view::npos)
                {
                    throw parse_error{"unterminated comment", line};
                }
                count_lines(pos, end);
                pos = end + 3;
                continue;
            }
            if (doc.compare(pos, 2, "</") == 0)
            {
                pos += 2;
                const auto closing = parse_name();
                auto& element = out.nodes[current.index];
                if (closing != element.tag)
                {
                    throw parse_error{"mismatched closing tag </" + std::string{closing} + "> for <" +
                                          std::string{element.tag} + ">",
                                      line};
                }
                skip_whitespace();
                if (!match(">"))
                {
                    throw parse_error{"expected '>' after closing tag", line};
                }
                element.text = element_text(current.first_segment);
                element.subtree = out.nodes.size() - current.index;
                segments.resize(current.first_segment);
                open.pop_back();
                continue;
            }
            const auto index = out.nodes.size();
            if (open_tag())
            {
                open.push_back({index, segments.size()});
            }
        }
    }

    std::string_view doc;
    document& out;
    std::size_t pos{0};
    std::size_t line{1};
    /// Character data of the open elements, innermost last.
    std::vector<std::string_view> segments;
};

}  // namespace

document parse(const std::string_view text)
{
    document result;
    parser{text, result}.parse_document();
    return result;
}

std::string escape(const std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw)
    {
        switch (c)
        {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            case '\'': out += "&apos;"; break;
            default: out.push_back(c); break;
        }
    }
    return out;
}

}  // namespace mnt::io::xml
