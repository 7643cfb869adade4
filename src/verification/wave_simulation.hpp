#pragma once

/// \file wave_simulation.hpp
/// \brief Clock-phase-accurate simulation of gate-level FCN layouts.
///
/// FCN circuits are deeply pipelined: the external clock fields move
/// information one clock zone per phase tick, four phases per full cycle.
/// This simulator executes a layout tick by tick — at tick t every tile in
/// zone (t mod 4) latches the function of its fanin tiles — until the
/// outputs stabilize. It is an independent semantic check from
/// \ref mnt::lyt::extract_network: a layout whose connections violate the
/// clocking discipline settles to wrong or unstable outputs here even if
/// its connection graph looks sound, and the measured settle latency is the
/// physical signal delay of the layout.

#include "layout/gate_level_layout.hpp"
#include "network/logic_network.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mnt::ver
{

/// Result of a wave simulation run.
struct wave_result
{
    /// One 64-assignment word per PO, in PO tile creation order, taken from
    /// the stabilized state.
    std::vector<std::uint64_t> po_words;

    /// PO names aligned with \ref po_words.
    std::vector<std::string> po_names;

    /// Ticks (clock phases) until all tile values stopped changing.
    std::size_t settle_ticks{0};

    /// False if the layout did not stabilize within the tick budget (a
    /// symptom of cyclic or mis-clocked connectivity).
    bool stabilized{false};
};

/// Options of \ref wave_simulate.
struct wave_options
{
    /// Tick budget; 0 derives a generous bound from the layout size.
    std::size_t max_ticks{0};
};

/// Simulates \p layout with one 64-assignment input word per PI (in PI tile
/// creation order; inputs are held constant for the whole run).
///
/// \throws mnt::precondition_error if pi_words.size() != layout.num_pis()
[[nodiscard]] wave_result wave_simulate(const lyt::gate_level_layout& layout,
                                        const std::vector<std::uint64_t>& pi_words,
                                        const wave_options& options = {});

/// Result of a row-batched wave simulation (\ref wave_simulate_block).
struct wave_block_result
{
    /// Flat row-major PO rows: word \c i of PO \c o at `po_rows[o * n + i]`,
    /// POs in tile creation order.
    std::vector<std::uint64_t> po_rows;

    /// PO names aligned with \ref po_rows.
    std::vector<std::string> po_names;

    /// Ticks until *all* word lanes stopped changing (the max over lanes).
    std::size_t settle_ticks{0};

    /// False if any lane failed to stabilize within the tick budget.
    bool stabilized{false};
};

/// Row-batched variant of \ref wave_simulate: runs \p n 64-assignment words
/// per PI through the layout in one tick loop, evaluating every tile's
/// function over whole rows with \ref mnt::ntk::evaluate_gate_row.
///
/// Bit-identical to \p n independent \ref wave_simulate runs: tiles latch in
/// the same zone-major/coordinate order, gates are pure bitwise arithmetic,
/// and the stabilized state is a fixpoint of the tick map — a
/// lane that settles early is simply re-latched to the same values while
/// slower lanes catch up.
///
/// \param pi_rows flat row-major input rows: word \c i of PI \c p (PI tile
///                creation order) at `pi_rows[p * n + i]`
/// \throws mnt::precondition_error if pi_rows.size() != num_pis * n
[[nodiscard]] wave_block_result wave_simulate_block(const lyt::gate_level_layout& layout,
                                                    const std::vector<std::uint64_t>& pi_rows, std::size_t n,
                                                    const wave_options& options = {});

/// Full equivalence check through the wave simulator: PIs/POs are matched
/// by name against \p specification, assignments are enumerated completely
/// (<= formal_threshold inputs) or sampled randomly. Catches clocking
/// violations that graph extraction cannot.
struct wave_equivalence_options
{
    std::size_t formal_threshold{12};
    std::size_t random_rounds{16};
    std::uint64_t seed{0x57415645ull};  // "WAVE"
};

struct wave_equivalence_result
{
    bool equivalent{false};
    bool stabilized{true};
    std::string reason;

    explicit operator bool() const noexcept
    {
        return equivalent;
    }
};

[[nodiscard]] wave_equivalence_result check_wave_equivalence(const ntk::logic_network& specification,
                                                             const lyt::gate_level_layout& layout,
                                                             const wave_equivalence_options& options = {});

// ---------------------------------------------------------------------------
// streaming (pipelined) simulation
// ---------------------------------------------------------------------------

/// Result of a streaming simulation: FCN layouts are deep pipelines that
/// accept one input frame per clock cycle and emit one output frame per
/// cycle after a fixed latency.
struct stream_result
{
    /// Output frames per PO (outer: PO in tile creation order; inner: one
    /// word per input frame), aligned to the input stream: frame f of PO o
    /// is the layout's response to input frame f.
    std::vector<std::vector<std::uint64_t>> po_frames;

    /// PO names aligned with po_frames.
    std::vector<std::string> po_names;

    /// Measured pipeline latency in full clock cycles per PO (frames of
    /// delay between an input and its response).
    std::vector<std::size_t> latency_cycles;

    /// True if every PO produced a consistent latency (a mis-clocked layout
    /// garbles the stream and fails alignment).
    bool aligned{false};
};

/// Options of \ref wave_stream_simulate.
struct stream_options
{
    /// Clock cycles each input frame is held. 1 = full rate (requires a
    /// path-balanced layout, as on real FCN hardware); 0 = automatic safe
    /// rate derived from the layout's depth (every frame settles fully).
    std::size_t cycles_per_frame{0};

    /// Largest latency (in frames) considered during stream alignment.
    std::size_t max_latency_frames{16};
};

/// Feeds input frames through \p layout — frame f is applied for
/// \ref stream_options::cycles_per_frame clock cycles — and records the PO
/// streams. The per-frame responses are recovered by aligning each PO's raw
/// stream with the expected response stream \p expected (indexed
/// [po][frame], PO order as in the layout).
///
/// At full rate this is the strongest functional check in the repository:
/// an FCN layout transports a *changing* data stream correctly only if all
/// reconvergent paths are delay-balanced — the synchronization property the
/// signal distribution networks of the InOrd paper exist for.
[[nodiscard]] stream_result wave_stream_simulate(const lyt::gate_level_layout& layout,
                                                 const std::vector<std::vector<std::uint64_t>>& frames,
                                                 const std::vector<std::vector<std::uint64_t>>& expected,
                                                 const stream_options& options = {});

/// Stream-based equivalence: drives \p rounds random frames through the
/// layout at full rate (one new frame per clock cycle) and checks that every
/// PO emits the specification's responses in order at a constant latency.
[[nodiscard]] wave_equivalence_result check_stream_equivalence(const ntk::logic_network& specification,
                                                               const lyt::gate_level_layout& layout,
                                                               std::size_t rounds = 24,
                                                               std::uint64_t seed = 0x53545245ull);

}  // namespace mnt::ver
