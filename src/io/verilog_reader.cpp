#include "io/verilog_reader.hpp"

#include "common/read_file.hpp"
#include "common/types.hpp"
#include "network/gate_type.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace mnt::io
{

namespace
{

using ntk::gate_type;
using ntk::logic_network;

// ---------------------------------------------------------------- tokenizer

struct token
{
    enum class kind : std::uint8_t
    {
        identifier,
        constant,  // value stored in text: "0" or "1"
        symbol,    // single character
        end
    };

    kind type{kind::end};
    std::string text;
    std::size_t line{0};
};

class tokenizer
{
public:
    /// Tokenizes \p source in place; the tokens copy their texts.
    explicit tokenizer(const std::string_view source)
    {
        tokenize(source);
    }

    [[nodiscard]] const token& peek(const std::size_t ahead = 0) const
    {
        const auto idx = position + ahead;
        return idx < tokens.size() ? tokens[idx] : sentinel;
    }

    const token& next()
    {
        const auto& t = peek();
        if (position < tokens.size())
        {
            ++position;
        }
        return t;
    }

    [[nodiscard]] bool at_end() const
    {
        return position >= tokens.size();
    }

private:
    void tokenize(const std::string_view source)
    {
        std::size_t line = 1;
        std::size_t i = 0;
        const auto n = source.size();

        while (i < n)
        {
            const char c = source[i];
            if (c == '\n')
            {
                ++line;
                ++i;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c)))
            {
                ++i;
                continue;
            }
            // comments
            if (c == '/' && i + 1 < n && source[i + 1] == '/')
            {
                while (i < n && source[i] != '\n')
                {
                    ++i;
                }
                continue;
            }
            if (c == '/' && i + 1 < n && source[i + 1] == '*')
            {
                i += 2;
                while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/'))
                {
                    if (source[i] == '\n')
                    {
                        ++line;
                    }
                    ++i;
                }
                if (i + 1 >= n)
                {
                    throw parse_error{"unterminated block comment", line};
                }
                i += 2;
                continue;
            }
            // identifiers / keywords
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '\\')
            {
                std::size_t start = i;
                if (c == '\\')  // escaped identifier: up to whitespace
                {
                    ++i;
                    start = i;
                    while (i < n && !std::isspace(static_cast<unsigned char>(source[i])))
                    {
                        ++i;
                    }
                }
                else
                {
                    while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) || source[i] == '_' ||
                                     source[i] == '$' || source[i] == '.'))
                    {
                        ++i;
                    }
                }
                tokens.push_back({token::kind::identifier, std::string{source.substr(start, i - start)}, line});
                continue;
            }
            // sized constants like 1'b0 / 1'h1 and bare digits
            if (std::isdigit(static_cast<unsigned char>(c)))
            {
                std::size_t start = i;
                while (i < n && std::isdigit(static_cast<unsigned char>(source[i])))
                {
                    ++i;
                }
                if (i < n && source[i] == '\'')
                {
                    i += 1;
                    if (i < n && (source[i] == 'b' || source[i] == 'h' || source[i] == 'd' || source[i] == 'B' ||
                                  source[i] == 'H' || source[i] == 'D'))
                    {
                        ++i;
                    }
                    std::size_t value_start = i;
                    while (i < n && std::isxdigit(static_cast<unsigned char>(source[i])))
                    {
                        ++i;
                    }
                    const auto value = source.substr(value_start, i - value_start);
                    if (value != "0" && value != "1")
                    {
                        throw parse_error{"only single-bit constants are supported, got '" +
                                              std::string{source.substr(start, i - start)} + "'",
                                          line};
                    }
                    tokens.push_back({token::kind::constant, std::string{value}, line});
                }
                else
                {
                    const auto value = source.substr(start, i - start);
                    if (value != "0" && value != "1")
                    {
                        throw parse_error{"unexpected number '" + std::string{value} + "'", line};
                    }
                    tokens.push_back({token::kind::constant, std::string{value}, line});
                }
                continue;
            }
            // single-character symbols
            static constexpr std::string_view symbols = "()[],;=~&|^{}:?";
            if (symbols.find(c) != std::string_view::npos)
            {
                tokens.push_back({token::kind::symbol, std::string(1, c), line});
                ++i;
                continue;
            }
            throw parse_error{std::string{"unexpected character '"} + c + "'", line};
        }
    }

    std::vector<token> tokens;
    std::size_t position{0};
    token sentinel{};
};

// ------------------------------------------------------------- expressions

struct expression
{
    enum class kind : std::uint8_t
    {
        net,       // named signal
        constant,  // value 0/1
        op_not,
        op_and,
        op_xor,
        op_or
    };

    kind type;
    std::string name;  // for net
    bool value{};      // for constant
    std::unique_ptr<expression> lhs;
    std::unique_ptr<expression> rhs;
};

using expression_ptr = std::unique_ptr<expression>;

class expression_parser
{
public:
    explicit expression_parser(tokenizer& tokens) : toks{tokens} {}

    expression_ptr parse()
    {
        return parse_or();
    }

private:
    expression_ptr parse_or()
    {
        auto lhs = parse_xor();
        while (toks.peek().type == token::kind::symbol && toks.peek().text == "|")
        {
            toks.next();
            auto node = std::make_unique<expression>();
            node->type = expression::kind::op_or;
            node->lhs = std::move(lhs);
            node->rhs = parse_xor();
            lhs = std::move(node);
        }
        return lhs;
    }

    expression_ptr parse_xor()
    {
        auto lhs = parse_and();
        while (toks.peek().type == token::kind::symbol && toks.peek().text == "^")
        {
            toks.next();
            auto node = std::make_unique<expression>();
            node->type = expression::kind::op_xor;
            node->lhs = std::move(lhs);
            node->rhs = parse_and();
            lhs = std::move(node);
        }
        return lhs;
    }

    expression_ptr parse_and()
    {
        auto lhs = parse_unary();
        while (toks.peek().type == token::kind::symbol && toks.peek().text == "&")
        {
            toks.next();
            auto node = std::make_unique<expression>();
            node->type = expression::kind::op_and;
            node->lhs = std::move(lhs);
            node->rhs = parse_unary();
            lhs = std::move(node);
        }
        return lhs;
    }

    expression_ptr parse_unary()
    {
        if (toks.peek().type == token::kind::symbol && toks.peek().text == "~")
        {
            const auto line = toks.next().line;
            static_cast<void>(line);
            auto node = std::make_unique<expression>();
            node->type = expression::kind::op_not;
            node->lhs = parse_unary();
            return node;
        }
        return parse_primary();
    }

    expression_ptr parse_primary()
    {
        const auto& t = toks.peek();
        if (t.type == token::kind::symbol && t.text == "(")
        {
            toks.next();
            auto inner = parse_or();
            expect_symbol(")");
            return inner;
        }
        if (t.type == token::kind::identifier)
        {
            auto node = std::make_unique<expression>();
            node->type = expression::kind::net;
            node->name = toks.next().text;
            return node;
        }
        if (t.type == token::kind::constant)
        {
            auto node = std::make_unique<expression>();
            node->type = expression::kind::constant;
            node->value = toks.next().text == "1";
            return node;
        }
        throw parse_error{"expected expression, got '" + t.text + "'", t.line};
    }

    void expect_symbol(const std::string& s)
    {
        const auto& t = toks.next();
        if (t.type != token::kind::symbol || t.text != s)
        {
            throw parse_error{"expected '" + s + "', got '" + t.text + "'", t.line};
        }
    }

    tokenizer& toks;
};

// ------------------------------------------------------------------ parser

struct primitive_instance
{
    gate_type type{gate_type::none};
    std::vector<std::string> inputs;
    std::size_t line{0};
};

struct module_description
{
    std::string name;
    std::vector<std::string> inputs;       // in declaration order
    std::vector<std::string> outputs;      // in declaration order
    std::unordered_set<std::string> wires;
    // net -> driving expression or primitive
    std::unordered_map<std::string, expression_ptr> assignments;
    std::unordered_map<std::string, primitive_instance> primitives;
    std::unordered_map<std::string, std::size_t> driver_lines;
    // driven nets in document order; elaboration follows this order so that
    // a written file reads back with gates in their original sequence
    std::vector<std::string> driver_order;
};

class verilog_parser
{
public:
    explicit verilog_parser(const std::string_view source) : toks{source} {}

    module_description parse()
    {
        module_description mod;
        expect_keyword("module");
        mod.name = expect_identifier("module name");
        parse_port_list();
        expect_symbol(";");

        while (true)
        {
            const auto& t = toks.peek();
            if (t.type == token::kind::end)
            {
                throw parse_error{"unexpected end of file: missing 'endmodule'", t.line};
            }
            if (t.type == token::kind::identifier && t.text == "endmodule")
            {
                toks.next();
                break;
            }
            parse_statement(mod);
        }

        if (toks.peek().type != token::kind::end)
        {
            throw parse_error{"content after 'endmodule' (only a single module is supported)", toks.peek().line};
        }
        return mod;
    }

private:
    void parse_port_list()
    {
        // port list is optional; names are re-declared by input/output
        if (toks.peek().type == token::kind::symbol && toks.peek().text == "(")
        {
            toks.next();
            while (!(toks.peek().type == token::kind::symbol && toks.peek().text == ")"))
            {
                const auto& t = toks.next();
                if (t.type == token::kind::end)
                {
                    throw parse_error{"unterminated port list", t.line};
                }
            }
            toks.next();  // consume ')'
        }
    }

    void parse_statement(module_description& mod)
    {
        const auto t = toks.next();
        if (t.type != token::kind::identifier)
        {
            throw parse_error{"expected statement, got '" + t.text + "'", t.line};
        }

        if (t.text == "input" || t.text == "output" || t.text == "wire")
        {
            parse_declaration(mod, t.text, t.line);
            return;
        }
        if (t.text == "assign")
        {
            parse_assignment(mod, t.line);
            return;
        }

        // gate primitive instantiation
        const auto type = ntk::gate_type_from_name(t.text);
        if (type == gate_type::none || type == gate_type::pi || type == gate_type::po)
        {
            throw parse_error{"unknown statement or gate primitive '" + t.text + "'", t.line};
        }
        parse_primitive(mod, type, t.line);
    }

    void parse_declaration(module_description& mod, const std::string& category, const std::size_t line)
    {
        if (toks.peek().type == token::kind::symbol && toks.peek().text == "[")
        {
            throw parse_error{"vector nets are not supported (scalar benchmarks only)", line};
        }
        while (true)
        {
            const auto name = expect_identifier("net name");
            if (category == "input" || category == "output")
            {
                // a port name may appear in exactly one direction, exactly
                // once; accepting repeats would produce networks the writer
                // cannot round-trip (duplicate POs become duplicate drivers)
                const auto declared = [&](const std::vector<std::string>& ports)
                { return std::find(ports.cbegin(), ports.cend(), name) != ports.cend(); };
                if (declared(mod.inputs) || declared(mod.outputs))
                {
                    throw parse_error{"port '" + name + "' is declared more than once", line};
                }
            }
            if (category == "input")
            {
                mod.inputs.push_back(name);
            }
            else if (category == "output")
            {
                mod.outputs.push_back(name);
            }
            else
            {
                mod.wires.insert(name);
            }
            const auto& t = toks.next();
            if (t.type == token::kind::symbol && t.text == ";")
            {
                break;
            }
            if (!(t.type == token::kind::symbol && t.text == ","))
            {
                throw parse_error{"expected ',' or ';' in declaration, got '" + t.text + "'", t.line};
            }
        }
    }

    void parse_assignment(module_description& mod, const std::size_t line)
    {
        const auto lhs = expect_identifier("assignment target");
        expect_symbol("=");
        expression_parser expr_parser{toks};
        auto expr = expr_parser.parse();
        expect_symbol(";");

        if (mod.assignments.contains(lhs) || mod.primitives.contains(lhs))
        {
            throw parse_error{"net '" + lhs + "' is driven multiple times", line};
        }
        mod.assignments.emplace(lhs, std::move(expr));
        mod.driver_lines.emplace(lhs, line);
        mod.driver_order.push_back(lhs);
    }

    void parse_primitive(module_description& mod, const gate_type type, const std::size_t line)
    {
        // optional instance name
        if (toks.peek().type == token::kind::identifier)
        {
            toks.next();
        }
        expect_symbol("(");
        std::vector<std::string> terminals;
        while (true)
        {
            // terminals are net names or constant literals (1'b0 / 1'b1)
            if (toks.peek().type == token::kind::constant)
            {
                terminals.push_back(toks.next().text == "1" ? "$const1" : "$const0");
            }
            else
            {
                terminals.push_back(expect_identifier("terminal"));
            }
            const auto& t = toks.next();
            if (t.type == token::kind::symbol && t.text == ")")
            {
                break;
            }
            if (!(t.type == token::kind::symbol && t.text == ","))
            {
                throw parse_error{"expected ',' or ')' in terminal list, got '" + t.text + "'", t.line};
            }
        }
        expect_symbol(";");

        const auto expected = static_cast<std::size_t>(ntk::gate_arity(type)) + 1u;
        if (terminals.size() != expected)
        {
            throw parse_error{"gate primitive '" + std::string{ntk::gate_type_name(type)} + "' expects " +
                                  std::to_string(expected) + " terminals, got " + std::to_string(terminals.size()),
                              line};
        }

        const auto output = terminals.front();
        if (mod.assignments.contains(output) || mod.primitives.contains(output))
        {
            throw parse_error{"net '" + output + "' is driven multiple times", line};
        }
        primitive_instance inst;
        inst.type = type;
        inst.inputs.assign(terminals.cbegin() + 1, terminals.cend());
        inst.line = line;
        mod.primitives.emplace(output, std::move(inst));
        mod.driver_lines.emplace(output, line);
        mod.driver_order.push_back(output);
    }

    std::string expect_identifier(const std::string& what)
    {
        const auto& t = toks.next();
        if (t.type != token::kind::identifier)
        {
            throw parse_error{"expected " + what + ", got '" + t.text + "'", t.line};
        }
        return t.text;
    }

    void expect_symbol(const std::string& s)
    {
        const auto& t = toks.next();
        if (t.type != token::kind::symbol || t.text != s)
        {
            throw parse_error{"expected '" + s + "', got '" + t.text + "'", t.line};
        }
    }

    void expect_keyword(const std::string& kw)
    {
        const auto& t = toks.next();
        if (t.type != token::kind::identifier || t.text != kw)
        {
            throw parse_error{"expected '" + kw + "', got '" + t.text + "'", t.line};
        }
    }

    tokenizer toks;
};

// ---------------------------------------------------------------- building

class network_builder
{
public:
    explicit network_builder(const module_description& module_desc) :
            mod{module_desc},
            network{module_desc.name}
    {}

    logic_network build()
    {
        for (const auto& in : mod.inputs)
        {
            if (node_of.contains(in))
            {
                throw parse_error{"duplicate input '" + in + "'", 0};
            }
            node_of.emplace(in, network.create_pi(in));
        }

        // elaborate live drivers in document order: demand-driven DFS from
        // the outputs alone would create gates in cone order, so a written
        // file would not read back structurally identical
        const auto live = live_nets();
        for (const auto& net : mod.driver_order)
        {
            if (live.contains(net))
            {
                resolve(net);
            }
        }

        for (const auto& out : mod.outputs)
        {
            network.create_po(resolve(out), out);
        }
        return std::move(network);
    }

private:
    /// Nets reachable from the outputs through the driver maps. Dead
    /// drivers stay unelaborated (and undiagnosed), like ntk::cleanup.
    [[nodiscard]] std::unordered_set<std::string> live_nets() const
    {
        std::unordered_set<std::string> live;
        std::vector<std::string> stack{mod.outputs.cbegin(), mod.outputs.cend()};
        while (!stack.empty())
        {
            auto net = std::move(stack.back());
            stack.pop_back();
            if (!live.insert(net).second)
            {
                continue;
            }
            if (const auto a = mod.assignments.find(net); a != mod.assignments.cend())
            {
                collect_nets(*a->second, stack);
            }
            else if (const auto p = mod.primitives.find(net); p != mod.primitives.cend())
            {
                stack.insert(stack.end(), p->second.inputs.cbegin(), p->second.inputs.cend());
            }
        }
        return live;
    }

    static void collect_nets(const expression& expr, std::vector<std::string>& out)
    {
        switch (expr.type)
        {
            case expression::kind::net: out.push_back(expr.name); break;
            case expression::kind::constant: break;
            case expression::kind::op_not: collect_nets(*expr.lhs, out); break;
            default:
                collect_nets(*expr.lhs, out);
                collect_nets(*expr.rhs, out);
                break;
        }
    }

    logic_network::node resolve(const std::string& net)
    {
        if (net == "$const0")
        {
            return network.get_constant(false);
        }
        if (net == "$const1")
        {
            return network.get_constant(true);
        }
        if (const auto it = node_of.find(net); it != node_of.cend())
        {
            return it->second;
        }
        if (in_progress.contains(net))
        {
            throw parse_error{"combinational cycle through net '" + net + "'", line_of(net)};
        }
        in_progress.insert(net);

        logic_network::node result{};
        if (const auto a = mod.assignments.find(net); a != mod.assignments.cend())
        {
            result = build_expression(*a->second);
        }
        else if (const auto p = mod.primitives.find(net); p != mod.primitives.cend())
        {
            std::vector<logic_network::node> fis;
            fis.reserve(p->second.inputs.size());
            for (const auto& in : p->second.inputs)
            {
                fis.push_back(resolve(in));
            }
            if (p->second.type == gate_type::buf)
            {
                result = fis[0];
            }
            else if (p->second.type == gate_type::inv)
            {
                result = network.create_not(fis[0]);
            }
            else
            {
                result = network.create_gate(p->second.type, fis);
            }
        }
        else
        {
            throw parse_error{"net '" + net + "' is never driven", 0};
        }

        in_progress.erase(net);
        node_of.emplace(net, result);
        return result;
    }

    logic_network::node build_expression(const expression& expr)
    {
        switch (expr.type)
        {
            case expression::kind::net: return resolve(expr.name);
            case expression::kind::constant: return network.get_constant(expr.value);
            case expression::kind::op_not: return network.create_not(build_expression(*expr.lhs));
            case expression::kind::op_and:
                return network.create_and(build_expression(*expr.lhs), build_expression(*expr.rhs));
            case expression::kind::op_xor:
                return network.create_xor(build_expression(*expr.lhs), build_expression(*expr.rhs));
            case expression::kind::op_or:
                return network.create_or(build_expression(*expr.lhs), build_expression(*expr.rhs));
        }
        throw parse_error{"internal expression error", 0};
    }

    [[nodiscard]] std::size_t line_of(const std::string& net) const
    {
        const auto it = mod.driver_lines.find(net);
        return it == mod.driver_lines.cend() ? 0 : it->second;
    }

    const module_description& mod;
    logic_network network;
    std::unordered_map<std::string, logic_network::node> node_of;
    std::unordered_set<std::string> in_progress;
};

}  // namespace

logic_network read_verilog_string(const std::string& source, const std::string& name)
{
    MNT_SPAN("io/verilog_read");
    verilog_parser parser{source};
    auto mod = parser.parse();
    if (mod.name.empty())
    {
        mod.name = name;
    }
    network_builder builder{mod};
    auto network = builder.build();
    if (tel::enabled())
    {
        tel::count("io.verilog.read_bytes", source.size());
        tel::count("io.verilog.read_records", network.num_gates());
    }
    return network;
}

logic_network read_verilog_file(const std::filesystem::path& path)
{
    return read_verilog_string(read_file(path), path.stem().string());
}

}  // namespace mnt::io
