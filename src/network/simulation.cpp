#include "network/simulation.hpp"

#include "common/types.hpp"

#include <algorithm>
#include <bit>
#include <random>

namespace mnt::ntk
{

truth_table::truth_table(const std::size_t vars_count) : vars{vars_count}
{
    if (vars > 26)
    {
        throw precondition_error{"truth_table: more than 26 variables are not supported"};
    }
    const auto words_needed = vars <= 6 ? std::size_t{1} : (std::size_t{1} << (vars - 6));
    storage.assign(words_needed, 0ull);
}

std::size_t truth_table::num_vars() const noexcept
{
    return vars;
}

std::uint64_t truth_table::num_bits() const noexcept
{
    return 1ull << vars;
}

bool truth_table::get_bit(const std::uint64_t index) const
{
    if (index >= num_bits())
    {
        throw precondition_error{"truth_table::get_bit: index out of range"};
    }
    return ((storage[index >> 6u] >> (index & 63u)) & 1ull) != 0ull;
}

void truth_table::set_bit(const std::uint64_t index, const bool value)
{
    if (index >= num_bits())
    {
        throw precondition_error{"truth_table::set_bit: index out of range"};
    }
    if (value)
    {
        storage[index >> 6u] |= (1ull << (index & 63u));
    }
    else
    {
        storage[index >> 6u] &= ~(1ull << (index & 63u));
    }
}

const std::vector<std::uint64_t>& truth_table::words() const noexcept
{
    return storage;
}

std::vector<std::uint64_t>& truth_table::words() noexcept
{
    return storage;
}

std::string truth_table::to_hex() const
{
    static constexpr char digits[] = "0123456789abcdef";
    const auto nibbles = std::max<std::uint64_t>(1, num_bits() / 4);
    std::string out;
    out.reserve(nibbles);
    for (std::uint64_t i = 0; i < nibbles; ++i)
    {
        const auto nibble_index = nibbles - 1 - i;
        const auto word = storage[(nibble_index * 4) >> 6u];
        const auto shift = (nibble_index * 4) & 63u;
        auto nib = (word >> shift) & 0xfull;
        if (num_bits() < 4)
        {
            nib &= (1ull << num_bits()) - 1ull;
        }
        out.push_back(digits[nib]);
    }
    return out;
}

std::uint64_t truth_table::count_ones() const noexcept
{
    std::uint64_t ones = 0;
    const auto total_bits = num_bits();
    for (std::size_t w = 0; w < storage.size(); ++w)
    {
        auto word = storage[w];
        if (total_bits < 64 && w == 0)
        {
            word &= (1ull << total_bits) - 1ull;
        }
        ones += static_cast<std::uint64_t>(std::popcount(word));
    }
    return ones;
}

std::vector<std::uint64_t> simulate_word(const logic_network& network, const std::vector<std::uint64_t>& pi_words)
{
    if (pi_words.size() != network.num_pis())
    {
        throw precondition_error{"simulate_word: one input word per PI required"};
    }

    std::vector<std::uint64_t> values(network.size(), 0ull);
    std::size_t pi_index = 0;

    network.foreach_node(
        [&](const logic_network::node n)
        {
            const auto t = network.type(n);
            switch (t)
            {
                case gate_type::const0: values[n] = 0ull; break;
                case gate_type::const1: values[n] = ~0ull; break;
                case gate_type::pi: values[n] = pi_words[pi_index++]; break;
                default:
                {
                    const auto fis = network.fanins(n);
                    const auto a = fis.size() > 0 ? values[fis[0]] : 0ull;
                    const auto b = fis.size() > 1 ? values[fis[1]] : 0ull;
                    const auto c = fis.size() > 2 ? values[fis[2]] : 0ull;
                    values[n] = evaluate_gate_word(t, a, b, c);
                    break;
                }
            }
        });

    std::vector<std::uint64_t> out;
    out.reserve(network.num_pos());
    network.foreach_po([&](const logic_network::node po) { out.push_back(values[po]); });
    return out;
}

std::vector<std::uint64_t> simulate_rows(const logic_network& network, const std::vector<std::uint64_t>& pi_rows,
                                         const std::size_t n)
{
    if (pi_rows.size() != network.num_pis() * n)
    {
        throw precondition_error{"simulate_rows: num_pis * n input words required"};
    }

    std::vector<std::uint64_t> values(network.size() * n, 0ull);
    std::size_t pi_index = 0;

    network.foreach_node(
        [&](const logic_network::node node)
        {
            const auto t = network.type(node);
            auto* row = values.data() + static_cast<std::size_t>(node) * n;
            switch (t)
            {
                case gate_type::const0: break;  // already zero-initialized
                case gate_type::const1: std::fill_n(row, n, ~0ull); break;
                case gate_type::pi:
                    std::copy_n(pi_rows.data() + pi_index * n, n, row);
                    ++pi_index;
                    break;
                default:
                {
                    const auto fis = network.fanins(node);
                    const auto* a = fis.size() > 0 ? values.data() + static_cast<std::size_t>(fis[0]) * n : nullptr;
                    const auto* b = fis.size() > 1 ? values.data() + static_cast<std::size_t>(fis[1]) * n : nullptr;
                    const auto* c = fis.size() > 2 ? values.data() + static_cast<std::size_t>(fis[2]) * n : nullptr;
                    evaluate_gate_row(t, row, a, b, c, n);
                    break;
                }
            }
        });

    std::vector<std::uint64_t> out;
    out.reserve(network.num_pos() * n);
    network.foreach_po(
        [&](const logic_network::node po)
        { out.insert(out.end(), values.cbegin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(po) * n),
                     values.cbegin() + static_cast<std::ptrdiff_t>((static_cast<std::size_t>(po) + 1u) * n)); });
    return out;
}

std::vector<truth_table> simulate_truth_tables(const logic_network& network)
{
    const auto k = network.num_pis();
    if (k > 26)
    {
        throw precondition_error{"simulate_truth_tables: network has more than 26 primary inputs"};
    }

    const auto total_bits = 1ull << k;
    const auto num_words = std::max<std::uint64_t>(1, total_bits / 64);

    std::vector<truth_table> tables(network.num_pos(), truth_table{k});

    // row-batched: evaluate up to `block_words` truth-table words per
    // topological pass with evaluate_gate_row. Bit-identical to one word per
    // pass (same variable patterns, pure bitwise gates).
    constexpr std::uint64_t block_words = 256;
    std::vector<std::uint64_t> pi_rows;

    for (std::uint64_t w0 = 0; w0 < num_words; w0 += block_words)
    {
        const auto n = static_cast<std::size_t>(std::min(block_words, num_words - w0));
        pi_rows.assign(k * n, 0ull);

        // variable v pattern within a word of 64 assignments starting at w*64
        for (std::size_t v = 0; v < k; ++v)
        {
            auto* row = pi_rows.data() + v * n;
            if (v < 6)
            {
                static constexpr std::uint64_t patterns[6] = {0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
                                                              0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
                                                              0xffff0000ffff0000ull, 0xffffffff00000000ull};
                std::fill_n(row, n, patterns[v]);
            }
            else
            {
                for (std::size_t i = 0; i < n; ++i)
                {
                    const auto base_index = (w0 + i) * 64ull;
                    row[i] = ((base_index >> v) & 1ull) ? ~0ull : 0ull;
                }
            }
        }

        const auto po_rows = simulate_rows(network, pi_rows, n);
        for (std::size_t o = 0; o < network.num_pos(); ++o)
        {
            for (std::size_t i = 0; i < n; ++i)
            {
                tables[o].words()[w0 + i] = po_rows[o * n + i];
            }
        }
    }

    // mask off unused high bits for k < 6
    if (total_bits < 64)
    {
        for (auto& t : tables)
        {
            t.words()[0] &= (1ull << total_bits) - 1ull;
        }
    }

    return tables;
}

std::vector<std::uint64_t> simulate_random(const logic_network& network, const std::size_t rounds,
                                           const std::uint64_t seed)
{
    std::mt19937_64 rng{seed};
    std::vector<std::uint64_t> result;
    result.reserve(rounds * network.num_pos());

    std::vector<std::uint64_t> pi_words(network.num_pis());
    for (std::size_t r = 0; r < rounds; ++r)
    {
        std::generate(pi_words.begin(), pi_words.end(), [&rng] { return rng(); });
        const auto po_words = simulate_word(network, pi_words);
        result.insert(result.end(), po_words.cbegin(), po_words.cend());
    }
    return result;
}

}  // namespace mnt::ntk
