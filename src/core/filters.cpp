#include "core/filters.hpp"

#include <tuple>

namespace mnt::cat
{

bool canonical_layout_less(const layout_record& a, const layout_record& b)
{
    const auto key = [](const layout_record& r)
    {
        return std::tuple<const std::string&, const std::string&, std::string, std::uint64_t, std::string,
                          const std::string&, std::size_t, std::size_t>{
            r.benchmark_set, r.benchmark_name, gate_library_name(r.library), r.area,
            r.label(),       r.clocking,       r.num_wires,                  r.num_crossings};
    };
    return key(a) < key(b);
}

}  // namespace mnt::cat
