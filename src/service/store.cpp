#include "service/store.hpp"

#include "common/provenance.hpp"
#include "common/types.hpp"
#include "io/fgl_reader.hpp"
#include "io/fgl_writer.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "service/hash.hpp"
#include "service/json.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace mnt::svc
{

namespace
{

constexpr const char* fgl_extension = ".fgl";
constexpr const char* verilog_extension = ".v";

/// An entry-level problem found while opening or loading the store, using
/// the outcome taxonomy: corruption maps to internal_error. Every issue is
/// also reported to the structured event log — store repair used to be the
/// silent path of the pipeline.
res::combo_outcome corruption(std::string label, std::string message)
{
    tel::log_event(tel::log_severity::warn, "store", "corrupt entry quarantined",
                   {{"entry", label}, {"detail", message}});
    res::combo_outcome issue{};
    issue.label = std::move(label);
    issue.kind = res::outcome_kind::internal_error;
    issue.message = std::move(message);
    issue.attempts = 1;
    return issue;
}

json_value strings_to_json(const std::vector<std::string>& values)
{
    auto array = json_value::make_array();
    for (const auto& v : values)
    {
        array.push_back(json_value{v});
    }
    return array;
}

std::vector<std::string> strings_from_json(const json_value& array)
{
    std::vector<std::string> values;
    for (const auto& element : array.as_array())
    {
        values.push_back(element.as_string());
    }
    return values;
}

/// 64-bit seeds do not survive the manifest's double-backed JSON numbers,
/// so they are stored as "0x%016llx" hex strings.
std::string hex_u64(const std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(value));
    return buffer;
}

std::uint64_t u64_from_hex(const std::string& text)
{
    return std::strtoull(text.c_str(), nullptr, 16);
}

/// Appends the rows of \p entries to \p out, comma-separated.
template <typename Entry>
void append_rows(std::string& out, const std::vector<Entry>& entries)
{
    for (std::size_t i = 0; i < entries.size(); ++i)
    {
        if (i != 0)
        {
            out.push_back(',');
        }
        out += entries[i].row;
    }
}

}  // namespace

std::string cache_key(const std::string& set, const std::string& name, const cat::gate_library_kind library,
                      const std::string& combo)
{
    return set + "/" + name + "|" + cat::gate_library_name(library) + "|" + combo;
}

std::string cache_key(const cat::layout_record& record)
{
    return cache_key(record.benchmark_set, record.benchmark_name, record.library,
                     prov::combo_label(record.algorithm, record.clocking, record.optimizations));
}

void write_file_atomic(const std::filesystem::path& path, const std::string& bytes)
{
    const auto temp = path.parent_path() / (path.filename().string() + ".tmp-" + std::to_string(::getpid()));
    const auto fail = [&](const std::string& what)
    {
        std::error_code ec;
        std::filesystem::remove(temp, ec);
        throw mnt_error{"store: " + what};
    };

    const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
    {
        throw mnt_error{"store: cannot create '" + temp.string() + "': " + std::strerror(errno)};
    }
    std::size_t offset = 0;
    while (offset < bytes.size())
    {
        const auto n = ::write(fd, bytes.data() + offset, bytes.size() - offset);
        if (n < 0)
        {
            if (errno == EINTR)
            {
                continue;
            }
            ::close(fd);
            fail("short write to '" + temp.string() + "': " + std::strerror(errno));
        }
        offset += static_cast<std::size_t>(n);
    }
    // the file's bytes must be durable before the rename makes them visible
    // under the final name — otherwise a power cut could surface an empty
    // file at the real path
    if (::fsync(fd) != 0)
    {
        ::close(fd);
        fail("fsync of '" + temp.string() + "' failed: " + std::strerror(errno));
    }
    ::close(fd);

    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec)
    {
        fail("cannot rename into '" + path.string() + "': " + ec.message());
    }

    // the rename itself lives in the directory — without a directory fsync a
    // power cut can forget the entry even though the data blocks survived
    const auto dir = path.parent_path().empty() ? std::filesystem::path{"."} : path.parent_path();
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0)
    {
        ::fsync(dir_fd);  // best effort: some filesystems reject directory fsync
        ::close(dir_fd);
    }
}

namespace
{

/// Removes `*.tmp-<pid>` leftovers of writers that are no longer alive. A
/// SIGKILL mid-write legitimately strands a temp file; pruning it on the
/// next open keeps the store's byte layout identical to an uninterrupted
/// run. Temps of *live* pids (concurrent shard workers) are left alone.
void prune_stale_temps(const std::filesystem::path& dir)
{
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator{dir, ec})
    {
        const auto name = entry.path().filename().string();
        const auto marker = name.rfind(".tmp-");
        if (marker == std::string::npos)
        {
            continue;
        }
        const auto pid_text = name.substr(marker + 5);
        char* end = nullptr;
        const auto pid = std::strtol(pid_text.c_str(), &end, 10);
        if (end == pid_text.c_str() || *end != '\0' || pid <= 0)
        {
            continue;
        }
        if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
        {
            std::error_code remove_ec;
            std::filesystem::remove(entry.path(), remove_ec);
        }
    }
}

}  // namespace

layout_store::layout_store(std::filesystem::path root) : layout_store{std::move(root), "manifest.json"}
{}

layout_store::layout_store(std::filesystem::path root, const std::filesystem::path& manifest_file_) :
        store_root{std::move(root)},
        manifest_file{manifest_file_}
{
    std::error_code ec;
    std::filesystem::create_directories(blob_dir(), ec);
    if (ec)
    {
        throw mnt_error{"store: cannot create '" + blob_dir().string() + "': " + ec.message()};
    }
    if (manifest_path().parent_path() != store_root)
    {
        std::filesystem::create_directories(manifest_path().parent_path(), ec);
        if (ec)
        {
            throw mnt_error{"store: cannot create '" + manifest_path().parent_path().string() +
                            "': " + ec.message()};
        }
    }
    prune_stale_temps(store_root);
    prune_stale_temps(blob_dir());
    load_manifest();
}

const std::filesystem::path& layout_store::root() const noexcept
{
    return store_root;
}

const std::vector<res::combo_outcome>& layout_store::open_issues() const noexcept
{
    return issues;
}

std::filesystem::path layout_store::manifest_path() const
{
    return store_root / manifest_file;
}

std::filesystem::path layout_store::blob_dir() const
{
    return store_root / "blobs";
}

void layout_store::stored_network::render()
{
    auto entry = json_value::make_object();
    entry.set("set", json_value{set});
    entry.set("name", json_value{name});
    entry.set("inputs", json_value{inputs});
    entry.set("outputs", json_value{outputs});
    entry.set("gates", json_value{gates});
    if (!family.empty())
    {
        entry.set("family", json_value{family});
    }
    entry.set("blob", json_value{blob});
    row = entry.dump();
}

void layout_store::stored_layout::render()
{
    auto entry = json_value::make_object();
    entry.set("set", json_value{set});
    entry.set("name", json_value{name});
    entry.set("library", json_value{library});
    entry.set("clocking", json_value{clocking});
    entry.set("algorithm", json_value{algorithm});
    entry.set("optimizations", strings_to_json(optimizations));
    entry.set("width", json_value{std::uint64_t{width}});
    entry.set("height", json_value{std::uint64_t{height}});
    entry.set("area", json_value{area});
    entry.set("gates", json_value{gates});
    entry.set("wires", json_value{wires});
    entry.set("crossings", json_value{crossings});
    entry.set("runtime_s", json_value{runtime_s});
    if (!family.empty())
    {
        entry.set("family", json_value{family});
        entry.set("family_seed", json_value{hex_u64(family_seed)});
    }
    entry.set("blob", json_value{blob});
    entry.set("cache_key", json_value{key});
    row = entry.dump();
}

void layout_store::stored_failure::render()
{
    auto entry = json_value::make_object();
    entry.set("set", json_value{set});
    entry.set("name", json_value{name});
    entry.set("library", json_value{library});
    entry.set("combination", json_value{combination});
    entry.set("kind", json_value{kind});
    entry.set("message", json_value{message});
    entry.set("elapsed_s", json_value{elapsed_s});
    entry.set("attempts", json_value{attempts});
    row = entry.dump();
}

void layout_store::load_manifest()
{
    if (!std::filesystem::exists(manifest_path()))
    {
        return;  // a fresh store
    }

    // any failure to read or parse the manifest, or to extract a numeric
    // version from it, degrades to an empty store; regeneration rebuilds it
    json_value manifest;
    std::uint64_t version = 0;
    try
    {
        manifest = json_value::parse(read_file(manifest_path()));
        version = manifest.at("version").as_u64();
    }
    catch (const std::exception& e)
    {
        tel::log_event(tel::log_severity::error, "store", "manifest unreadable; store loads empty",
                       {{"path", manifest_path().string()}, {"error", e.what()}});
        issues.push_back(corruption("manifest", e.what()));
        tel::count("store.load_issues");
        return;
    }
    if (version > manifest_version)
    {
        // genuinely unsupported, not corruption: refuse loudly
        tel::log_event(tel::log_severity::error, "store", "manifest version newer than supported",
                       {{"path", manifest_path().string()},
                        {"version", std::to_string(version)},
                        {"supported", std::to_string(manifest_version)}});
        throw mnt_error{"store: manifest version " + std::to_string(version) +
                        " is newer than supported version " + std::to_string(manifest_version)};
    }
    if (version < manifest_version)
    {
        // version 1 addressed blobs by 64-bit FNV-1a; every blob reference
        // would fail the hash cross-check, so treat the store as empty and
        // let regeneration rewrite it under the current format
        tel::log_event(tel::log_severity::warn, "store", "manifest version predates blob-address format",
                       {{"path", manifest_path().string()},
                        {"version", std::to_string(version)},
                        {"supported", std::to_string(manifest_version)}});
        issues.push_back(corruption("manifest", "manifest version " + std::to_string(version) +
                                                    " predates the current blob-address format; "
                                                    "treating the store as empty"));
        tel::count("store.load_issues");
        return;
    }

    absorb_manifest(manifest, "manifest");
}

merge_stats layout_store::absorb_manifest(const json_value& manifest, const std::string& origin)
{
    merge_stats stats{};
    if (const auto* networks_json = manifest.find("networks"); networks_json != nullptr)
    {
        for (const auto& entry : networks_json->as_array())
        {
            try
            {
                stored_network n{};
                n.set = entry.at("set").as_string();
                n.name = entry.at("name").as_string();
                n.inputs = entry.at("inputs").as_u64();
                n.outputs = entry.at("outputs").as_u64();
                n.gates = entry.at("gates").as_u64();
                if (const auto* family_json = entry.find("family"); family_json != nullptr)
                {
                    n.family = family_json->as_string();
                }
                n.blob = entry.at("blob").as_string();
                if (!network_names.insert(n.set + "/" + n.name).second)
                {
                    continue;  // already present (shard duplicated a network)
                }
                n.render();
                stats.blob_ids.push_back(n.blob);
                networks.push_back(std::move(n));
                ++stats.networks;
            }
            catch (const std::exception& e)
            {
                issues.push_back(corruption(origin + " networks entry", e.what()));
                tel::count("store.load_issues");
            }
        }
    }
    if (const auto* layouts_json = manifest.find("layouts"); layouts_json != nullptr)
    {
        for (const auto& entry : layouts_json->as_array())
        {
            try
            {
                stored_layout l{};
                l.set = entry.at("set").as_string();
                l.name = entry.at("name").as_string();
                l.library = entry.at("library").as_string();
                l.clocking = entry.at("clocking").as_string();
                l.algorithm = entry.at("algorithm").as_string();
                l.optimizations = strings_from_json(entry.at("optimizations"));
                l.width = static_cast<std::uint32_t>(entry.at("width").as_u64());
                l.height = static_cast<std::uint32_t>(entry.at("height").as_u64());
                l.area = entry.at("area").as_u64();
                l.gates = entry.at("gates").as_u64();
                l.wires = entry.at("wires").as_u64();
                l.crossings = entry.at("crossings").as_u64();
                l.runtime_s = entry.at("runtime_s").as_number();
                if (const auto* family_json = entry.find("family"); family_json != nullptr)
                {
                    l.family = family_json->as_string();
                }
                if (const auto* seed_json = entry.find("family_seed"); seed_json != nullptr)
                {
                    l.family_seed = u64_from_hex(seed_json->as_string());
                }
                l.blob = entry.at("blob").as_string();
                l.key = entry.at("cache_key").as_string();
                if (!keys.insert(l.key).second)
                {
                    continue;  // layout or completed marker already known
                }
                l.render();
                stats.blob_ids.push_back(l.blob);
                layouts.push_back(std::move(l));
                ++stats.layouts;
            }
            catch (const std::exception& e)
            {
                issues.push_back(corruption(origin + " layouts entry", e.what()));
                tel::count("store.load_issues");
            }
        }
    }
    if (const auto* failures_json = manifest.find("failures"); failures_json != nullptr)
    {
        for (const auto& entry : failures_json->as_array())
        {
            try
            {
                stored_failure f{};
                f.set = entry.at("set").as_string();
                f.name = entry.at("name").as_string();
                f.library = entry.at("library").as_string();
                f.combination = entry.at("combination").as_string();
                f.kind = entry.at("kind").as_string();
                f.message = entry.at("message").as_string();
                f.elapsed_s = entry.at("elapsed_s").as_number();
                f.attempts = entry.at("attempts").as_u64();
                f.render();
                // replace-by-combination, like put_failure: a rerun's result
                // supersedes the previous record instead of accumulating
                auto replaced = false;
                for (auto& existing : failures)
                {
                    if (existing.set == f.set && existing.name == f.name && existing.library == f.library &&
                        existing.combination == f.combination)
                    {
                        existing = std::move(f);
                        replaced = true;
                        break;
                    }
                }
                if (!replaced)
                {
                    failures.push_back(std::move(f));
                }
                ++stats.failures;
            }
            catch (const std::exception& e)
            {
                issues.push_back(corruption(origin + " failures entry", e.what()));
                tel::count("store.load_issues");
            }
        }
    }
    if (const auto* completed_json = manifest.find("completed"); completed_json != nullptr)
    {
        try
        {
            for (auto& key : strings_from_json(*completed_json))
            {
                if (keys.insert(key).second)
                {
                    auto row = json_value{key}.dump();
                    completed.push_back({std::move(key), std::move(row)});
                    ++stats.completed;
                }
            }
        }
        catch (const std::exception& e)
        {
            issues.push_back(corruption(origin + " completed list", e.what()));
            tel::count("store.load_issues");
        }
    }
    return stats;
}

merge_stats layout_store::merge_manifest_file(const std::filesystem::path& path)
{
    json_value manifest;
    std::uint64_t version = 0;
    try
    {
        manifest = json_value::parse(read_file(path));
        version = manifest.at("version").as_u64();
    }
    catch (const std::exception& e)
    {
        throw mnt_error{"store: cannot merge shard manifest '" + path.string() + "': " + e.what()};
    }
    if (version != manifest_version)
    {
        throw mnt_error{"store: shard manifest '" + path.string() + "' has version " + std::to_string(version) +
                        ", expected " + std::to_string(manifest_version)};
    }
    auto stats = absorb_manifest(manifest, "shard " + path.filename().string());
    tel::count("store.shard_merges");
    return stats;
}

std::string layout_store::put_network(const std::string& set, const std::string& name,
                                      const ntk::logic_network& network, const std::string& family)
{
    MNT_SPAN("store/put");
    if (has_network(set, name))
    {
        for (const auto& n : networks)
        {
            if (n.set == set && n.name == name)
            {
                return n.blob;
            }
        }
    }
    // primitives style round-trips exactly through read_verilog
    const auto bytes = io::write_verilog_string(network, io::verilog_style::primitives);
    const auto hash = content_hash(bytes);
    const auto path = blob_dir() / (hash + verilog_extension);
    if (!std::filesystem::exists(path))
    {
        write_file_atomic(path, bytes);
        tel::count("store.blobs_written");
    }
    stored_network n{};
    n.set = set;
    n.name = name;
    n.inputs = network.num_pis();
    n.outputs = network.num_pos();
    n.gates = network.num_gates();
    n.family = family;
    n.blob = hash;
    n.render();
    network_names.insert(set + "/" + name);
    networks.push_back(std::move(n));
    tel::count("store.networks_written");
    return hash;
}

std::string layout_store::put_layout(const cat::layout_record& record)
{
    MNT_SPAN("store/put");
    auto key = cache_key(record);
    if (keys.count(key) != 0)
    {
        for (const auto& l : layouts)
        {
            if (l.key == key)
            {
                return l.blob;
            }
        }
        return {};  // key held by a completed marker only: nothing stored
    }
    const auto bytes = io::write_fgl_string(record.layout);
    const auto hash = content_hash(bytes);
    const auto path = blob_dir() / (hash + fgl_extension);
    if (!std::filesystem::exists(path))
    {
        write_file_atomic(path, bytes);
        tel::count("store.blobs_written");
    }
    stored_layout l{};
    l.set = record.benchmark_set;
    l.name = record.benchmark_name;
    l.library = cat::gate_library_name(record.library);
    l.clocking = record.clocking;
    l.algorithm = record.algorithm;
    l.optimizations = record.optimizations;
    l.width = record.layout.width();
    l.height = record.layout.height();
    l.area = record.layout.area();
    l.gates = record.layout.num_gates();
    l.wires = record.layout.num_wires();
    l.crossings = record.layout.num_crossings();
    l.runtime_s = record.runtime;
    l.family = record.family;
    l.family_seed = record.family_seed;
    l.blob = hash;
    l.key = key;
    l.render();
    keys.insert(std::move(key));
    layouts.push_back(std::move(l));
    tel::count("store.layouts_written");
    return hash;
}

void layout_store::put_failure(const cat::failure_record& record)
{
    stored_failure f{};
    f.set = record.benchmark_set;
    f.name = record.benchmark_name;
    f.library = cat::gate_library_name(record.library);
    f.combination = record.combination;
    f.kind = record.kind;
    f.message = record.message;
    f.elapsed_s = record.elapsed_s;
    f.attempts = record.attempts;
    f.render();
    // one record per combination: a rerun's retry replaces the old entry
    // instead of accumulating duplicates in the manifest
    for (auto& existing : failures)
    {
        if (existing.set == f.set && existing.name == f.name && existing.library == f.library &&
            existing.combination == f.combination)
        {
            existing = std::move(f);
            return;
        }
    }
    failures.push_back(std::move(f));
    tel::count("store.failures_written");
}

void layout_store::mark_completed(const std::string& key)
{
    if (keys.insert(key).second)
    {
        completed.push_back({key, json_value{key}.dump()});
    }
}

bool layout_store::remove_failure(const std::string& set, const std::string& name, const std::string& library,
                                  const std::string& combination)
{
    for (auto it = failures.begin(); it != failures.end(); ++it)
    {
        if (it->set == set && it->name == name && it->library == library && it->combination == combination)
        {
            failures.erase(it);
            return true;
        }
    }
    return false;
}

void layout_store::save()
{
    MNT_SPAN("store/save");
    // canonical order: the manifest bytes must be a pure function of the
    // content set, independent of ingestion order — a resumed run and an
    // uninterrupted one then produce byte-identical manifests
    std::sort(networks.begin(), networks.end(),
              [](const stored_network& a, const stored_network& b)
              { return std::tie(a.set, a.name) < std::tie(b.set, b.name); });
    std::sort(layouts.begin(), layouts.end(),
              [](const stored_layout& a, const stored_layout& b) { return a.key < b.key; });
    std::sort(failures.begin(), failures.end(),
              [](const stored_failure& a, const stored_failure& b)
              {
                  return std::tie(a.set, a.name, a.library, a.combination) <
                         std::tie(b.set, b.name, b.library, b.combination);
              });
    std::sort(completed.begin(), completed.end(),
              [](const stored_marker& a, const stored_marker& b) { return a.key < b.key; });

    std::string manifest = "{\"version\":" + json_value{manifest_version}.dump() + ",\"networks\":[";
    append_rows(manifest, networks);
    manifest += "],\"layouts\":[";
    append_rows(manifest, layouts);
    manifest += "],\"failures\":[";
    append_rows(manifest, failures);
    manifest += "],\"completed\":[";
    append_rows(manifest, completed);
    manifest += "]}\n";
    write_file_atomic(manifest_path(), manifest);
    tel::count("store.manifest_saves");
}

bool layout_store::contains(const std::string& key) const
{
    return keys.count(key) != 0;
}

bool layout_store::has_network(const std::string& set, const std::string& name) const
{
    return network_names.count(set + "/" + name) != 0;
}

std::size_t layout_store::num_networks() const noexcept
{
    return networks.size();
}

std::size_t layout_store::num_layouts() const noexcept
{
    return layouts.size();
}

std::size_t layout_store::num_failures() const noexcept
{
    return failures.size();
}

std::optional<std::filesystem::path> layout_store::blob_path(const std::string& id) const
{
    // ids are hex-only, so no traversal risk; reject anything else outright
    for (const char c : id)
    {
        if ((c < '0' || c > '9') && (c < 'a' || c > 'f'))
        {
            return std::nullopt;
        }
    }
    for (const char* extension : {fgl_extension, verilog_extension})
    {
        auto path = blob_dir() / (id + extension);
        if (std::filesystem::exists(path))
        {
            return path;
        }
    }
    return std::nullopt;
}

store_snapshot layout_store::load()
{
    MNT_SPAN("store/load");
    store_snapshot snapshot{};
    snapshot.issues = issues;  // carry over manifest-level problems

    const auto report = [&](std::string label, std::string message)
    {
        snapshot.issues.push_back(corruption(std::move(label), std::move(message)));
        tel::count("store.load_issues");
    };

    // a blob whose bytes no longer hash to its name is irrecoverably bad AND
    // blocks regeneration (put_* skips writing over an existing file), so it
    // is deleted; a fresh run then rewrites it under the same address
    const auto discard_blob = [&](const std::filesystem::path& path)
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    };

    // indices of entries that failed to load; pruned below so contains() /
    // has_network() stop claiming them and regeneration reruns the combos
    std::vector<std::size_t> bad_networks;
    std::vector<std::size_t> bad_layouts;

    for (std::size_t i = 0; i < networks.size(); ++i)
    {
        const auto& n = networks[i];
        const auto path = blob_dir() / (n.blob + verilog_extension);
        try
        {
            const auto bytes = read_file(path);
            if (content_hash(bytes) != n.blob)
            {
                report("network " + n.set + "/" + n.name, "blob content does not match its hash");
                discard_blob(path);
                bad_networks.push_back(i);
                continue;
            }
            auto network = io::read_verilog_string(bytes, n.name);
            snapshot.catalog.add_network(n.set, n.name, std::move(network), n.family);
        }
        catch (const std::exception& e)
        {
            report("network " + n.set + "/" + n.name, e.what());
            bad_networks.push_back(i);
        }
    }

    for (std::size_t i = 0; i < layouts.size(); ++i)
    {
        const auto& l = layouts[i];
        const auto path = blob_dir() / (l.blob + fgl_extension);
        try
        {
            const auto bytes = read_file(path);
            if (content_hash(bytes) != l.blob)
            {
                report(l.key, "blob content does not match its hash");
                discard_blob(path);
                bad_layouts.push_back(i);
                continue;
            }
            cat::layout_record record{};
            record.benchmark_set = l.set;
            record.benchmark_name = l.name;
            record.library = cat::gate_library_from_name(l.library);
            record.clocking = l.clocking;
            record.algorithm = l.algorithm;
            record.optimizations = l.optimizations;
            record.runtime = l.runtime_s;
            record.family = l.family;
            record.family_seed = l.family_seed;
            record.layout = io::read_fgl_string(bytes);
            if (record.layout.area() != l.area || record.layout.num_gates() != l.gates ||
                record.layout.num_wires() != l.wires)
            {
                // the blob itself is sound (its hash matched) — only the
                // manifest row is wrong, so the file stays for reuse
                report(l.key, "blob metrics do not match the manifest");
                bad_layouts.push_back(i);
                continue;
            }
            snapshot.catalog.add_layout(std::move(record));
            snapshot.layout_ids.push_back(l.blob);
        }
        catch (const std::exception& e)
        {
            report(l.key, e.what());
            bad_layouts.push_back(i);
        }
    }

    // prune in reverse so the collected indices stay valid
    for (auto it = bad_layouts.rbegin(); it != bad_layouts.rend(); ++it)
    {
        keys.erase(layouts[*it].key);
        layouts.erase(layouts.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    for (auto it = bad_networks.rbegin(); it != bad_networks.rend(); ++it)
    {
        network_names.erase(networks[*it].set + "/" + networks[*it].name);
        networks.erase(networks.begin() + static_cast<std::ptrdiff_t>(*it));
    }

    for (const auto& f : failures)
    {
        try
        {
            cat::failure_record record{};
            record.benchmark_set = f.set;
            record.benchmark_name = f.name;
            record.library = cat::gate_library_from_name(f.library);
            record.combination = f.combination;
            record.kind = f.kind;
            record.message = f.message;
            record.elapsed_s = f.elapsed_s;
            record.attempts = f.attempts;
            snapshot.catalog.add_failure(std::move(record));
        }
        catch (const std::exception& e)
        {
            report("failure " + f.set + "/" + f.name + "|" + f.combination, e.what());
        }
    }

    if (tel::enabled())
    {
        tel::count("store.loads");
        tel::count("store.loaded_layouts", snapshot.catalog.num_layouts());
    }
    return snapshot;
}

}  // namespace mnt::svc
