#pragma once

/// \file simulation.hpp
/// \brief Bit-parallel simulation and truth-table computation for logic
///        networks. This is the semantic ground truth against which every
///        layout-producing algorithm in this repository is verified.

#include "network/logic_network.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mnt::ntk
{

/// A truth table over `num_vars` variables stored as packed 64-bit words in
/// variable-minor order: bit `i` of the table is the function value under the
/// assignment whose bit `v` equals bit `v` of `i`.
class truth_table
{
public:
    /// Creates an all-zero table over \p vars variables (vars <= 26).
    explicit truth_table(std::size_t vars);

    [[nodiscard]] std::size_t num_vars() const noexcept;

    /// Number of rows, i.e. 2^num_vars.
    [[nodiscard]] std::uint64_t num_bits() const noexcept;

    [[nodiscard]] bool get_bit(std::uint64_t index) const;
    void set_bit(std::uint64_t index, bool value);

    /// Raw word storage (num_bits()/64 words, at least one).
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept;
    [[nodiscard]] std::vector<std::uint64_t>& words() noexcept;

    /// Hex string representation (most significant word first), e.g. "8" for
    /// AND2. Useful for test expectations and debugging.
    [[nodiscard]] std::string to_hex() const;

    /// Number of satisfying assignments.
    [[nodiscard]] std::uint64_t count_ones() const noexcept;

    bool operator==(const truth_table& other) const = default;

private:
    std::size_t vars;
    std::vector<std::uint64_t> storage;
};

/// Simulates one 64-assignment word through the network.
///
/// \param network the network to simulate
/// \param pi_words one 64-bit word per primary input (assignment-parallel)
/// \returns one word per primary output, in PO creation order
/// \throws precondition_error if pi_words.size() != network.num_pis()
[[nodiscard]] std::vector<std::uint64_t> simulate_word(const logic_network& network,
                                                       const std::vector<std::uint64_t>& pi_words);

/// Row-batched variant of \ref simulate_word: simulates \p n 64-assignment
/// words per primary input in one topological pass, evaluating each gate
/// over whole rows with \ref evaluate_gate_row.
///
/// \param pi_rows flat row-major input rows: word \c i of PI \c p lives at
///                `pi_rows[p * n + i]`; size must be num_pis() * n
/// \returns flat row-major output rows: word \c i of PO \c o at
///          `result[o * n + i]`
///
/// Bit-identical to calling \ref simulate_word once per word column — both
/// evaluate every gate with \ref evaluate_gate_word, which is pure bitwise
/// arithmetic; tests/test_properties_simd.cpp checks this.
[[nodiscard]] std::vector<std::uint64_t> simulate_rows(const logic_network& network,
                                                       const std::vector<std::uint64_t>& pi_rows, std::size_t n);

/// Computes complete truth tables for all primary outputs.
///
/// Feasible up to ~26 inputs (2^26 bits per signal); intended for the formal
/// equivalence checking of the small/medium benchmark functions.
///
/// \throws precondition_error if the network has more than 26 PIs
[[nodiscard]] std::vector<truth_table> simulate_truth_tables(const logic_network& network);

/// Simulates \p rounds pseudo-random 64-assignment words (deterministic in
/// \p seed) and returns the per-PO output words concatenated round-major:
/// result[r * num_pos + o]. Used for randomized equivalence on networks too
/// large for truth tables.
[[nodiscard]] std::vector<std::uint64_t> simulate_random(const logic_network& network, std::size_t rounds,
                                                         std::uint64_t seed);

}  // namespace mnt::ntk
