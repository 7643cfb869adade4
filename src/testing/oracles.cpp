#include "testing/oracles.hpp"

#include "common/types.hpp"
#include "core/best_selection.hpp"
#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "network/transforms.hpp"
#include "physical_design/ortho.hpp"
#include "physical_design/post_layout_optimization.hpp"
#include "service/json.hpp"
#include "service/store.hpp"
#include "verification/drc.hpp"
#include "verification/equivalence.hpp"
#include "verification/synchronization.hpp"
#include "verification/wave_simulation.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace mnt::pbt
{

// ------------------------------------------------------- pipeline oracles

bool has_constant_po(const ntk::logic_network& network)
{
    const auto propagated = ntk::propagate_constants(network);
    for (const auto po : propagated.pos())
    {
        if (propagated.is_constant(propagated.fanins(po)[0]))
        {
            return true;
        }
    }
    return false;
}

oracle_result check_layout_contract(const ntk::logic_network& specification, const lyt::gate_level_layout& layout)
{
    const auto drc = ver::gate_level_drc(layout);
    if (!drc.passed())
    {
        return oracle_result::fail("DRC error: " + drc.errors.front());
    }

    const auto graph_eq = ver::check_layout_equivalence(specification, layout);
    const auto wave_eq = ver::check_wave_equivalence(specification, layout);
    if (graph_eq.equivalent != wave_eq.equivalent)
    {
        return oracle_result::fail(std::string{"equivalence checkers disagree: graph says "} +
                                   (graph_eq.equivalent ? "equivalent" : graph_eq.reason) + ", wave says " +
                                   (wave_eq.equivalent ? "equivalent" : wave_eq.reason));
    }
    if (!graph_eq)
    {
        return oracle_result::fail("not equivalent: " + graph_eq.reason);
    }
    if (!wave_eq.stabilized)
    {
        return oracle_result::fail("wave simulation did not stabilize");
    }

    // must be analyzable (throws design_rule_error on cyclic connectivity)
    const auto sync = ver::analyze_synchronization(layout);
    static_cast<void>(sync);
    return oracle_result::pass();
}

oracle_result check_ortho_pipeline(const ntk::logic_network& specification, const res::deadline_clock& deadline)
{
    if (has_constant_po(specification))
    {
        return oracle_result::pass();  // outside the documented input domain
    }
    pd::ortho_params params{};
    params.deadline = deadline;
    return check_layout_contract(specification, pd::ortho(specification, params));
}

oracle_result check_npr_pipeline(const ntk::logic_network& specification, const pd::nanoplacer_params& params)
{
    if (has_constant_po(specification))
    {
        return oracle_result::pass();  // outside the documented input domain
    }
    const auto layout = pd::nanoplacer(specification, params);
    if (!layout.has_value())
    {
        return oracle_result::pass();  // "no feasible placement" is a legal outcome
    }
    return check_layout_contract(specification, *layout);
}

oracle_result check_plo_pipeline(const ntk::logic_network& specification, const res::deadline_clock& deadline)
{
    if (has_constant_po(specification))
    {
        return oracle_result::pass();  // outside the documented input domain
    }
    pd::ortho_params ortho_params{};
    ortho_params.deadline = deadline;
    const auto before = pd::ortho(specification, ortho_params);

    pd::plo_params plo_params{};
    plo_params.deadline = deadline;
    const auto after = pd::post_layout_optimization(before, plo_params);

    if (after.area() > before.area())
    {
        return oracle_result::fail("PLO grew the layout: " + std::to_string(before.area()) + " -> " +
                                   std::to_string(after.area()) + " tiles");
    }
    return check_layout_contract(specification, after);
}

// ------------------------------------------------------------- IO oracles

oracle_result check_fgl_fixpoint(const lyt::gate_level_layout& layout)
{
    const auto first = io::write_fgl_string(layout);
    const auto reread = io::read_fgl_string(first);
    const auto second = io::write_fgl_string(reread);
    if (first != second)
    {
        return oracle_result::fail("write -> read -> write is not a byte fixpoint");
    }
    return oracle_result::pass();
}

oracle_result check_fgl_document(const std::string& document)
{
    lyt::gate_level_layout layout;
    try
    {
        layout = io::read_fgl_string(document);
    }
    catch (const mnt_error&)
    {
        return oracle_result::pass();  // rejected with a typed error
    }
    return check_fgl_fixpoint(layout);
}

oracle_result check_verilog_roundtrip(const ntk::logic_network& network)
{
    // the primitive style is specified to round-trip structurally — up to
    // dead logic, which the reader (elaborating from the outputs) drops by
    // design, exactly like ntk::cleanup
    const auto primitives = io::write_verilog_string(network, io::verilog_style::primitives);
    const auto reread = io::read_verilog_string(primitives, network.network_name());
    if (!ntk::cleanup(network).structurally_equal(reread))
    {
        return oracle_result::fail("primitive-style Verilog did not round-trip structurally");
    }

    // the assignment style may restructure but must preserve the function
    const auto assignments = io::write_verilog_string(network, io::verilog_style::assignments);
    const auto functional = io::read_verilog_string(assignments, network.network_name());
    const auto equivalence = ver::check_equivalence(network, functional);
    if (!equivalence)
    {
        return oracle_result::fail("assignment-style Verilog round-trip not equivalent: " + equivalence.reason);
    }
    return oracle_result::pass();
}

oracle_result check_verilog_document(const std::string& document)
{
    ntk::logic_network network;
    try
    {
        network = io::read_verilog_string(document, "prop");
    }
    catch (const mnt_error&)
    {
        return oracle_result::pass();
    }
    return check_verilog_roundtrip(network);
}

// ------------------------------------------------- layout container oracle

namespace
{

/// Cheap full-state digest used to prove a rejected op left no trace.
std::string layout_digest(const lyt::gate_level_layout& layout)
{
    std::string digest = std::to_string(layout.width()) + "x" + std::to_string(layout.height()) + ";";
    layout.foreach_tile(
        [&](const lyt::coordinate& c, const lyt::gate_level_layout::tile_data& tile)
        {
            digest += c.to_string() + "=" + std::string{ntk::gate_type_name(tile.type)} + "<" + layout.io_name_of(c);
            for (const auto& in : tile.incoming)
            {
                digest += in.to_string();
            }
            digest += ">";
        });
    return digest;
}

/// Returns the first violated container invariant, or an empty string.
std::string container_violation(const lyt::gate_level_layout& layout)
{
    std::size_t seen = 0;
    std::string violation;
    layout.foreach_tile(
        [&](const lyt::coordinate& c, const lyt::gate_level_layout::tile_data& tile)
        {
            ++seen;
            if (!violation.empty())
            {
                return;
            }
            if (tile.incoming.size() > ntk::logic_network::max_fanin_size)
            {
                violation = c.to_string() + " has " + std::to_string(tile.incoming.size()) + " fanins";
                return;
            }
            for (const auto& src : tile.incoming)
            {
                if (!layout.has_tile(src))
                {
                    violation = c.to_string() + " has dangling fanin " + src.to_string();
                    return;
                }
                const auto outs = layout.outgoing_of(src);
                if (std::find(outs.begin(), outs.end(), c) == outs.end())
                {
                    violation = src.to_string() + " -> " + c.to_string() + " missing from outgoing list";
                    return;
                }
            }
            const auto outs = layout.outgoing_of(c);
            if (outs.size() > lyt::gate_level_layout::max_fanout)
            {
                violation = c.to_string() + " drives " + std::to_string(outs.size()) + " successors";
                return;
            }
            for (const auto& dst : outs)
            {
                if (!layout.has_tile(dst))
                {
                    violation = c.to_string() + " has dangling fanout " + dst.to_string();
                    return;
                }
                const auto& ins = layout.incoming_of(dst);
                if (std::find(ins.begin(), ins.end(), c) == ins.end())
                {
                    violation = c.to_string() + " -> " + dst.to_string() + " missing from incoming list";
                    return;
                }
            }
        });
    if (!violation.empty())
    {
        return violation;
    }

    if (seen != layout.num_occupied())
    {
        return "num_occupied() = " + std::to_string(layout.num_occupied()) + " but the scan finds " +
               std::to_string(seen);
    }

    const auto sorted = layout.tiles_sorted();
    if (sorted.size() != seen)
    {
        return "tiles_sorted() has " + std::to_string(sorted.size()) + " entries, expected " + std::to_string(seen);
    }
    for (std::size_t i = 1; i < sorted.size(); ++i)
    {
        if (!(sorted[i - 1] < sorted[i]))
        {
            return "tiles_sorted() not strictly increasing at " + sorted[i].to_string();
        }
    }

    if (layout.pi_tiles().size() != layout.num_pis() || layout.po_tiles().size() != layout.num_pos())
    {
        return "PI/PO tile lists disagree with counters";
    }
    for (const auto& pi : layout.pi_tiles())
    {
        if (layout.type_of(pi) != ntk::gate_type::pi)
        {
            return "pi_tiles() entry " + pi.to_string() + " is not a PI";
        }
    }
    for (const auto& po : layout.po_tiles())
    {
        if (layout.type_of(po) != ntk::gate_type::po)
        {
            return "po_tiles() entry " + po.to_string() + " is not a PO";
        }
    }

    const auto accounted =
        layout.num_gates() + layout.num_wires() + layout.num_pis() + layout.num_pos();
    if (accounted != seen)
    {
        return "type counters sum to " + std::to_string(accounted) + " for " + std::to_string(seen) + " tiles";
    }

    const auto [lo, hi] = layout.bounding_box();
    if (seen > 0 && (hi.x >= static_cast<std::int32_t>(layout.width()) ||
                     hi.y >= static_cast<std::int32_t>(layout.height()) || lo.x < 0 || lo.y < 0))
    {
        return "bounding box " + lo.to_string() + ".." + hi.to_string() + " escapes the grid";
    }
    return {};
}

}  // namespace

oracle_result check_layout_ops(const std::vector<layout_op>& ops, const std::uint32_t side)
{
    lyt::gate_level_layout layout{"ops", lyt::layout_topology::cartesian, lyt::clocking_scheme::twoddwave(), side,
                                  side};

    std::size_t io_counter = 0;
    for (std::size_t i = 0; i < ops.size(); ++i)
    {
        const auto& op = ops[i];
        const auto before = layout_digest(layout);
        bool rejected = false;
        try
        {
            switch (op.kind)
            {
                case layout_op_kind::place:
                {
                    std::string io_name;
                    if (op.type == ntk::gate_type::pi || op.type == ntk::gate_type::po)
                    {
                        io_name = (op.type == ntk::gate_type::pi ? "in" : "out") + std::to_string(io_counter++);
                    }
                    layout.place(op.a, op.type, io_name);
                    break;
                }
                case layout_op_kind::connect: layout.connect(op.a, op.b); break;
                case layout_op_kind::disconnect: layout.disconnect(op.a, op.b); break;
                case layout_op_kind::clear: layout.clear_tile(op.a); break;
                case layout_op_kind::move: layout.move_tile(op.a, op.b); break;
                case layout_op_kind::resize:
                    layout.resize(static_cast<std::uint32_t>(op.a.x + 1), static_cast<std::uint32_t>(op.a.y + 1));
                    break;
            }
        }
        catch (const precondition_error&)
        {
            rejected = true;
        }

        if (rejected && layout_digest(layout) != before)
        {
            return oracle_result::fail("op " + std::to_string(i) + " (" + op.to_string() +
                                       ") was rejected but changed the layout");
        }
        if (auto violation = container_violation(layout); !violation.empty())
        {
            return oracle_result::fail("after op " + std::to_string(i) + " (" + op.to_string() + "): " + violation);
        }
    }
    return oracle_result::pass();
}

// -------------------------------------------------------- service oracles

oracle_result check_store_roundtrip(const ntk::logic_network& network, const std::filesystem::path& root)
{
    if (has_constant_po(network))
    {
        return oracle_result::pass();  // ortho ingestion rejects these by precondition
    }
    const std::string set{"Prop"};
    const auto& name = network.network_name();

    cat::layout_record record;
    record.benchmark_set = set;
    record.benchmark_name = name;
    record.library = cat::gate_library_kind::qca_one;
    record.clocking = "2DDWave";
    record.algorithm = "ortho";
    record.layout = pd::ortho(network);

    const auto key = svc::cache_key(record);
    std::string network_id;
    std::string layout_id;
    {
        svc::layout_store store{root};
        if (!store.open_issues().empty())
        {
            return oracle_result::fail("fresh store reports open issues");
        }
        network_id = store.put_network(set, name, network);
        layout_id = store.put_layout(record);
        if (!store.contains(key))
        {
            return oracle_result::fail("cache key not indexed directly after put_layout");
        }
        store.save();
    }

    svc::layout_store reopened{root};
    if (!reopened.open_issues().empty())
    {
        return oracle_result::fail("reopened store reports issues: " + reopened.open_issues().front().message);
    }
    if (!reopened.contains(key))
    {
        return oracle_result::fail("cache key lost across save/reopen — regeneration would redo cached work");
    }

    auto snapshot = reopened.load();
    if (!snapshot.issues.empty())
    {
        return oracle_result::fail("load reported an issue: " + snapshot.issues.front().message);
    }
    if (snapshot.catalog.networks().size() != 1 || snapshot.catalog.layouts().size() != 1 ||
        snapshot.layout_ids.size() != 1)
    {
        return oracle_result::fail("snapshot cardinality wrong");
    }
    if (snapshot.layout_ids.front() != layout_id)
    {
        return oracle_result::fail("layout id changed across round-trip: " + layout_id + " -> " +
                                   snapshot.layout_ids.front());
    }

    const auto& loaded = snapshot.catalog.layouts().front();
    if (loaded.benchmark_set != set || loaded.benchmark_name != name || loaded.clocking != record.clocking ||
        loaded.algorithm != record.algorithm)
    {
        return oracle_result::fail("layout provenance fields changed across round-trip");
    }
    if (io::write_fgl_string(loaded.layout) != io::write_fgl_string(record.layout))
    {
        return oracle_result::fail("layout .fgl bytes changed across round-trip");
    }
    if (loaded.area != record.layout.area())
    {
        return oracle_result::fail("layout metrics changed across round-trip");
    }

    const auto& loaded_network = snapshot.catalog.networks().front().network;
    const auto equivalence = ver::check_equivalence(network, loaded_network);
    if (!equivalence)
    {
        return oracle_result::fail("network not equivalent after round-trip: " + equivalence.reason);
    }
    static_cast<void>(network_id);
    return oracle_result::pass();
}

std::vector<const cat::layout_record*> scan_filter(const cat::catalog& cat, const cat::filter_query& query)
{
    const auto admits = [](const auto& allowed, const auto& value)
    { return allowed.empty() || std::find(allowed.cbegin(), allowed.cend(), value) != allowed.cend(); };

    std::vector<const cat::layout_record*> selection;
    for (const auto& r : cat.layouts())
    {
        if ((query.benchmark_set.has_value() && r.benchmark_set != *query.benchmark_set) ||
            (query.benchmark_name.has_value() && r.benchmark_name != *query.benchmark_name) ||
            !admits(query.libraries, r.library) || !admits(query.clockings, r.clocking) ||
            !admits(query.algorithms, r.algorithm) || !admits(query.families, r.family))
        {
            continue;
        }
        const auto has_all_opts = std::all_of(
            query.required_optimizations.cbegin(), query.required_optimizations.cend(),
            [&](const std::string& opt)
            { return std::find(r.optimizations.cbegin(), r.optimizations.cend(), opt) != r.optimizations.cend(); });
        if (has_all_opts)
        {
            selection.push_back(&r);
        }
    }

    if (query.best_only)
    {
        std::map<std::tuple<std::string, std::string, cat::gate_library_kind>, const cat::layout_record*> best;
        for (const auto* r : selection)
        {
            auto& slot = best[{r->benchmark_set, r->benchmark_name, r->library}];
            if (slot == nullptr || cat::better_layout(*r, *slot))
            {
                slot = r;
            }
        }
        selection.clear();
        for (const auto& [key, r] : best)
        {
            selection.push_back(r);
        }
    }

    // stable: records equal on the whole canonical key keep catalog order
    std::stable_sort(selection.begin(), selection.end(),
                     [](const cat::layout_record* a, const cat::layout_record* b)
                     { return cat::canonical_layout_less(*a, *b); });
    return selection;
}

cat::facet_counts scan_facets(const std::vector<const cat::layout_record*>& selection)
{
    cat::facet_counts facets{};
    for (const auto* r : selection)
    {
        ++facets.per_set[r->benchmark_set];
        ++facets.per_library[cat::gate_library_name(r->library)];
        ++facets.per_clocking[r->clocking];
        ++facets.per_algorithm[r->algorithm];
        for (const auto& opt : r->optimizations)
        {
            ++facets.per_optimization[opt];
        }
        if (!r->family.empty())
        {
            ++facets.per_family[r->family];
        }
    }
    return facets;
}

oracle_result check_query_parity(const svc::query_engine& engine, const cat::catalog& cat,
                                 const cat::filter_query& query)
{
    const auto indexed = engine.filter(query);
    const auto scanned = scan_filter(cat, query);
    if (indexed.size() != scanned.size())
    {
        return oracle_result::fail("index returns " + std::to_string(indexed.size()) + " records, linear scan " +
                                   std::to_string(scanned.size()));
    }
    for (std::size_t i = 0; i < indexed.size(); ++i)
    {
        if (indexed[i] != scanned[i])
        {
            return oracle_result::fail("result " + std::to_string(i) + " differs between index and linear scan");
        }
    }
    return oracle_result::pass();
}

oracle_result check_page_consistency(const svc::query_engine& engine, const cat::catalog& cat,
                                     const svc::page_query& query)
{
    const auto page = engine.run(query);
    auto reference = scan_filter(cat, query.filter);

    if (page.total != reference.size())
    {
        return oracle_result::fail("page.total = " + std::to_string(page.total) + ", linear scan finds " +
                                   std::to_string(reference.size()));
    }
    if (page.offset != query.offset)
    {
        return oracle_result::fail("page.offset = " + std::to_string(page.offset) + " for a query offset of " +
                                   std::to_string(query.offset));
    }

    // reference page order: the canonical selection, stably sorted by the
    // requested key alone (canonical order breaks ties)
    const auto ascending = query.order == svc::sort_order::ascending;
    const auto primary = [&](const cat::layout_record* a, const cat::layout_record* b)
    {
        if (!ascending)
        {
            std::swap(a, b);
        }
        switch (query.sort)
        {
            case svc::sort_key::area: return a->area < b->area;
            case svc::sort_key::benchmark:
                return std::tie(a->benchmark_set, a->benchmark_name) < std::tie(b->benchmark_set, b->benchmark_name);
            case svc::sort_key::algorithm: return a->label() < b->label();
            case svc::sort_key::runtime: return a->runtime < b->runtime;
        }
        return false;
    };
    std::stable_sort(reference.begin(), reference.end(), primary);
    const auto first = std::min(query.offset, reference.size());
    const auto last = std::min(first + std::min(query.limit, svc::page_query::max_limit), reference.size());
    const std::vector<const cat::layout_record*> window{reference.cbegin() + static_cast<std::ptrdiff_t>(first),
                                                        reference.cbegin() + static_cast<std::ptrdiff_t>(last)};
    if (page.rows != window)
    {
        return oracle_result::fail("page rows differ from the reference window [" + std::to_string(first) + ", " +
                                   std::to_string(last) + ") of " + std::to_string(reference.size()));
    }
    if (page.ids.size() != page.rows.size() || page.rendered.size() != page.rows.size())
    {
        return oracle_result::fail("page ids or rendered rows misaligned with its rows");
    }
    for (std::size_t i = 0; i < page.rows.size(); ++i)
    {
        const auto index = static_cast<std::size_t>(page.rows[i] - cat.layouts().data());
        if (page.ids[i] != engine.id_of(index) || engine.index_of(page.ids[i]) != index)
        {
            return oracle_result::fail("page id " + std::to_string(i) + " misaligned with its record");
        }
    }

    const auto expected = query.include_facets ? scan_facets(reference) : cat::facet_counts{};
    if (page.facets.per_set != expected.per_set || page.facets.per_library != expected.per_library ||
        page.facets.per_clocking != expected.per_clocking || page.facets.per_algorithm != expected.per_algorithm ||
        page.facets.per_optimization != expected.per_optimization || page.facets.per_family != expected.per_family)
    {
        return oracle_result::fail("facet histograms disagree with the linear scan");
    }

    // the rendered bytes are the writer's canonical form of themselves (for
    // catalogs of valid UTF-8), and each row renders its own record
    const auto body = svc::page_json_string(page);
    try
    {
        const auto document = svc::json_value::parse(body);
        if (document.dump() != body)
        {
            return oracle_result::fail("page body is not a JSON dump fixpoint");
        }
        const auto& results = document.at("results").as_array();
        if (results.size() != page.rows.size())
        {
            return oracle_result::fail("page body has " + std::to_string(results.size()) + " results for " +
                                       std::to_string(page.rows.size()) + " rows");
        }
        for (std::size_t i = 0; i < results.size(); ++i)
        {
            if (results[i].at("id").as_string() != page.ids[i] ||
                results[i].at("label").as_string() != page.rows[i]->label())
            {
                return oracle_result::fail("rendered row " + std::to_string(i) + " is not its record");
            }
        }
    }
    catch (const mnt_error& e)
    {
        return oracle_result::fail(std::string{"page body does not parse: "} + e.what());
    }
    return oracle_result::pass();
}

oracle_result check_http_byte_stream(svc::catalog_server& server, const std::string& bytes)
{
    const auto parsed = svc::parse_http_request(bytes, 1U << 20U);
    if (parsed.status != svc::http_parse_status::ok)
    {
        return oracle_result::pass();  // classified without a crash — that is the contract
    }

    const auto response = server.handle(parsed.request);
    switch (response.status)
    {
        case 200:
        case 304:  // conditional request with a matching validator
        case 400:
        case 404:
        case 405:
        case 408:
        case 413:
        case 501: break;  // unrecognized request method
        default:
            return oracle_result::fail("unexpected status " + std::to_string(response.status) + " for " +
                                       parsed.request.method + " " + parsed.request.path);
    }
    if (response.status != 304 && response.content_type == "application/json")
    {
        try
        {
            static_cast<void>(svc::json_value::parse(response.body));
        }
        catch (const mnt_error&)
        {
            return oracle_result::fail("JSON response body does not parse for " + parsed.request.method + " " +
                                       parsed.request.path);
        }
    }
    return oracle_result::pass();
}

}  // namespace mnt::pbt
