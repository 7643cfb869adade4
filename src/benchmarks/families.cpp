#include "benchmarks/families.hpp"

#include "common/taskrt/taskrt.hpp"
#include "common/types.hpp"
#include "io/verilog_writer.hpp"
#include "service/hash.hpp"
#include "telemetry/telemetry.hpp"

#include <cstdio>
#include <utility>

namespace mnt::bm
{

namespace
{

/// splitmix64 finalizer: the same bijective mixer pbt::rng steps with; used
/// here to spread (seed, index, version) into independent per-function
/// streams without sequential dependence.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept
{
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31U);
}

[[nodiscard]] std::string hex64(const std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(value));
    return std::string{buffer};
}

[[nodiscard]] std::string_view size_class_name(const size_class size) noexcept
{
    switch (size)
    {
        case size_class::tiny: return "tiny";
        case size_class::small: return "small";
        case size_class::medium: return "medium";
        case size_class::large: return "large";
    }
    return "small";
}

}  // namespace

std::string family_set_name(const family_spec& spec)
{
    return "Family-" + spec.name;
}

std::string family_id(const family_spec& spec)
{
    // canonical parameter string: every field that influences generation, in
    // a fixed order, plus the generator version. Hash collisions aside, two
    // families share an id iff they generate identical functions.
    const auto& s = spec.shape;
    std::string canonical;
    canonical.reserve(256);
    canonical += "mnt-family|v";
    canonical += std::to_string(family_generator_version);
    canonical += "|name=" + spec.name;
    canonical += "|seed=" + hex64(spec.seed);
    canonical += "|count=" + std::to_string(spec.count);
    canonical += "|pis=" + std::to_string(s.min_pis) + ".." + std::to_string(s.max_pis);
    canonical += "|pos=" + std::to_string(s.min_pos) + ".." + std::to_string(s.max_pos);
    canonical += "|gates=" + std::to_string(s.min_gates) + ".." + std::to_string(s.max_gates);
    canonical += "|window=" + std::to_string(s.window);
    canonical += "|chain=" + std::to_string(s.chain_percent);
    canonical += "|maj=" + std::string{s.allow_maj ? "1" : "0"};
    canonical += "|xor=" + std::string{s.allow_xor ? "1" : "0"};
    canonical += "|const=" + std::to_string(s.constant_percent);
    return svc::content_hash(canonical);
}

std::string family_function_name(const std::size_t index)
{
    char buffer[24];  // "f" and up to 20 digits of a 64-bit index
    std::snprintf(buffer, sizeof buffer, "f%05zu", index);
    return std::string{buffer};
}

std::uint64_t family_function_seed(const family_spec& spec, const std::size_t index)
{
    // mix in the version first so a generator bump reshuffles every stream,
    // then the index with a golden-ratio stride (splitmix64's increment) so
    // neighbouring indices land in unrelated streams
    auto z = spec.seed ^ mix64(0x6d6e745f66616d00ull + family_generator_version);
    z ^= mix64((static_cast<std::uint64_t>(index) + 1ull) * 0x9e3779b97f4a7c15ull);
    return mix64(z);
}

ntk::logic_network family_network(const family_spec& spec, const std::size_t index)
{
    if (index >= spec.count)
    {
        throw precondition_error{"family_network: function index out of range"};
    }
    auto shape = spec.shape;
    shape.name = family_function_name(index);
    pbt::rng random{family_function_seed(spec, index)};
    auto network = pbt::random_network(random, shape);
    tel::count("family.networks_generated");
    return network;
}

std::vector<benchmark_entry> family_entries(const family_spec& spec)
{
    const auto id = family_id(spec);
    const auto set = family_set_name(spec);

    std::vector<benchmark_entry> entries;
    entries.reserve(spec.count);
    for (std::size_t i = 0; i < spec.count; ++i)
    {
        benchmark_entry entry{};
        entry.set = set;
        entry.name = family_function_name(i);
        entry.build = [spec, i] { return family_network(spec, i); };
        entry.size = spec.size;
        entry.family = id;
        entry.family_seed = family_function_seed(spec, i);
        entries.push_back(std::move(entry));
    }
    tel::count("family.entries_registered", entries.size());
    return entries;
}

svc::json_value family_manifest(const family_spec& spec)
{
    // per-function records are pure in (spec, index): compute them in
    // parallel into pre-sized slots, then assemble the document serially in
    // index order — byte-identical at any thread count
    struct function_record
    {
        std::uint64_t pis{};
        std::uint64_t pos{};
        std::uint64_t gates{};
        std::string verilog_sha;
    };
    std::vector<function_record> records(spec.count);

    trt::parallel_for(0, spec.count, 1,
                      [&](const std::size_t begin, const std::size_t end)
                      {
                          for (std::size_t i = begin; i < end; ++i)
                          {
                              const auto network = family_network(spec, i);
                              records[i].pis = network.num_pis();
                              records[i].pos = network.num_pos();
                              records[i].gates = network.num_gates();
                              records[i].verilog_sha = svc::content_hash(
                                  io::write_verilog_string(network, io::verilog_style::primitives));
                          }
                      });

    const auto& s = spec.shape;

    auto shape = svc::json_value::make_object();
    shape.set("min_pis", svc::json_value{static_cast<std::uint64_t>(s.min_pis)});
    shape.set("max_pis", svc::json_value{static_cast<std::uint64_t>(s.max_pis)});
    shape.set("min_pos", svc::json_value{static_cast<std::uint64_t>(s.min_pos)});
    shape.set("max_pos", svc::json_value{static_cast<std::uint64_t>(s.max_pos)});
    shape.set("min_gates", svc::json_value{static_cast<std::uint64_t>(s.min_gates)});
    shape.set("max_gates", svc::json_value{static_cast<std::uint64_t>(s.max_gates)});
    shape.set("window", svc::json_value{static_cast<std::uint64_t>(s.window)});
    shape.set("chain_percent", svc::json_value{s.chain_percent});
    shape.set("allow_maj", svc::json_value{s.allow_maj});
    shape.set("allow_xor", svc::json_value{s.allow_xor});
    shape.set("constant_percent", svc::json_value{s.constant_percent});

    auto functions = svc::json_value::make_array();
    for (std::size_t i = 0; i < spec.count; ++i)
    {
        auto row = svc::json_value::make_object();
        row.set("name", svc::json_value{family_function_name(i)});
        row.set("seed", svc::json_value{hex64(family_function_seed(spec, i))});
        row.set("pis", svc::json_value{records[i].pis});
        row.set("pos", svc::json_value{records[i].pos});
        row.set("gates", svc::json_value{records[i].gates});
        row.set("verilog_sha", svc::json_value{records[i].verilog_sha});
        functions.push_back(std::move(row));
    }

    auto manifest = svc::json_value::make_object();
    manifest.set("manifest_version", svc::json_value{std::uint64_t{1}});
    manifest.set("generator_version", svc::json_value{static_cast<std::uint64_t>(family_generator_version)});
    manifest.set("family", svc::json_value{family_id(spec)});
    manifest.set("name", svc::json_value{spec.name});
    manifest.set("set", svc::json_value{family_set_name(spec)});
    manifest.set("seed", svc::json_value{hex64(spec.seed)});
    manifest.set("count", svc::json_value{static_cast<std::uint64_t>(spec.count)});
    manifest.set("size", svc::json_value{std::string{size_class_name(spec.size)}});
    manifest.set("shape", std::move(shape));
    manifest.set("functions", std::move(functions));

    tel::count("family.manifests_built");
    return manifest;
}

std::string family_manifest_bytes(const family_spec& spec)
{
    return family_manifest(spec).dump() + "\n";
}

std::string family_manifest_hash(const family_spec& spec)
{
    return svc::content_hash(family_manifest_bytes(spec));
}

std::vector<family_spec> reference_families()
{
    // three gate-mix corners, 1000 functions each. The shapes are locked by
    // KATs (tests/test_families.cpp): changing any field here without
    // bumping family_generator_version breaks those tests by design.
    family_spec aoi{};
    aoi.name = "aoi";
    aoi.seed = 0x616f692d76312e30ull;  // "aoi-v1.0"
    aoi.shape.min_pis = 4;
    aoi.shape.max_pis = 8;
    aoi.shape.min_pos = 1;
    aoi.shape.max_pos = 4;
    aoi.shape.min_gates = 8;
    aoi.shape.max_gates = 32;
    aoi.shape.window = 12;
    aoi.shape.chain_percent = 35;
    aoi.shape.allow_maj = false;
    aoi.shape.allow_xor = false;
    aoi.shape.constant_percent = 0;

    family_spec xor_heavy = aoi;
    xor_heavy.name = "xor";
    xor_heavy.seed = 0x786f722d76312e30ull;  // "xor-v1.0"
    xor_heavy.shape.allow_xor = true;
    xor_heavy.shape.chain_percent = 50;

    family_spec maj = aoi;
    maj.name = "maj";
    maj.seed = 0x6d616a2d76312e30ull;  // "maj-v1.0"
    maj.shape.allow_maj = true;
    maj.shape.allow_xor = true;
    maj.shape.max_gates = 40;

    return {aoi, xor_heavy, maj};
}

std::optional<family_spec> find_reference_family(const std::string& name)
{
    for (auto& spec : reference_families())
    {
        if (spec.name == name)
        {
            return spec;
        }
    }
    return std::nullopt;
}

}  // namespace mnt::bm
