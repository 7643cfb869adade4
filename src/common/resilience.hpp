#pragma once

/// \file resilience.hpp
/// \brief Resilient execution for the layout-generation pipeline: structured
///        per-combination outcomes, a cooperative global run deadline, a
///        bounded retry policy, and a near-zero-cost fault-injection hook —
///        the machinery that lets the portfolio degrade gracefully instead
///        of losing every good result to one misbehaving algorithm ×
///        clocking × optimization combination.
///
/// Design constraints (see DESIGN.md "Failure semantics & resilience"):
///
/// - **Isolation.** \ref run_guarded executes one combination and maps every
///   escape path (mnt_error, std::bad_alloc, unknown exceptions, deadline
///   expiry) to a \ref combo_outcome instead of letting it abort the whole
///   portfolio.
/// - **Cooperative deadlines.** \ref deadline_clock is a copyable value
///   threaded through algorithm parameter structs; long-running loops poll
///   it through a strided \ref deadline_guard and unwind with
///   \ref deadline_exceeded, so a global budget interrupts `exact`, the
///   annealer, `ortho` and the router without detached threads or signals.
/// - **Deterministic retries.** Transient failures (verification failures
///   of stochastic tools) are retried at once, up to a bound, under a
///   shifted seed — there is no external resource to wait out.
/// - **Zero cost when off.** Fault injection compiles to a single relaxed
///   atomic load per site when MNT_FAULT_INJECT is unset, and to nothing at
///   all under -DMNT_NO_FAULT_INJECTION.

#include "common/types.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace mnt::res
{

// ----------------------------------------------------------- error taxonomy

/// Raised (cooperatively) when the global run deadline expires inside an
/// algorithm. \ref run_guarded maps it to outcome_kind::timeout; it is
/// deliberately NOT a subclass of the per-module error types so generic
/// mnt_error handlers inside algorithms cannot swallow a cancellation by
/// accident — catch it explicitly or let it unwind.
class deadline_exceeded : public mnt_error
{
public:
    explicit deadline_exceeded(const std::string& where) : mnt_error{"deadline exceeded in " + where} {}
};

// ------------------------------------------------------------ deadline_clock

/// A copyable, shareable run deadline: an absolute steady-clock point plus an
/// optional external stop flag (stop_token style). Default-constructed clocks
/// are unbounded and never expire, so threading one through parameter structs
/// costs nothing on the common path.
class deadline_clock
{
public:
    using clock = std::chrono::steady_clock;

    /// Unbounded: never expires.
    deadline_clock() = default;

    /// Expires \p seconds from now (<= 0 means already expired).
    [[nodiscard]] static deadline_clock after(const double seconds)
    {
        deadline_clock d{};
        d.point = clock::now() + std::chrono::duration_cast<clock::duration>(
                                     std::chrono::duration<double>(seconds));
        return d;
    }

    [[nodiscard]] static deadline_clock unbounded() noexcept
    {
        return deadline_clock{};
    }

    /// Attaches an external cancellation flag; \ref expired also returns true
    /// once the flag is set, independent of the time budget.
    void attach_stop(std::shared_ptr<const std::atomic<bool>> flag) noexcept
    {
        stop_flag = std::move(flag);
    }

    /// Returns a copy that additionally observes \p flag — used by the task
    /// runtime to compose a race's cancellation token with an already
    /// attached stop flag (e.g. the CLI's SIGINT flag) without replacing it.
    /// Two external flags are supported per clock, which covers the deepest
    /// real chain (portfolio stop + first_winner cancel); deriving a third
    /// time overwrites the second slot.
    [[nodiscard]] deadline_clock with_stop(std::shared_ptr<const std::atomic<bool>> flag) const
    {
        deadline_clock d{*this};
        if (d.stop_flag == nullptr)
        {
            d.stop_flag = std::move(flag);
        }
        else
        {
            d.stop_flag2 = std::move(flag);
        }
        return d;
    }

    /// True when a time budget is set or a stop flag is attached.
    [[nodiscard]] bool bounded() const noexcept
    {
        return point != clock::time_point::max() || stop_flag != nullptr || stop_flag2 != nullptr;
    }

    [[nodiscard]] bool expired() const noexcept
    {
        if (stop_flag != nullptr && stop_flag->load(std::memory_order_relaxed))
        {
            return true;
        }
        if (stop_flag2 != nullptr && stop_flag2->load(std::memory_order_relaxed))
        {
            return true;
        }
        return point != clock::time_point::max() && clock::now() >= point;
    }

    /// Seconds left (+infinity when unbounded, clamped at 0 when expired).
    [[nodiscard]] double remaining_s() const noexcept
    {
        if (point == clock::time_point::max())
        {
            return std::numeric_limits<double>::infinity();
        }
        const auto left = std::chrono::duration<double>(point - clock::now()).count();
        return left > 0.0 ? left : 0.0;
    }

    /// \throws deadline_exceeded when expired
    void throw_if_expired(const char* where) const
    {
        if (expired())
        {
            throw deadline_exceeded{where};
        }
    }

private:
    clock::time_point point{clock::time_point::max()};
    std::shared_ptr<const std::atomic<bool>> stop_flag{};
    std::shared_ptr<const std::atomic<bool>> stop_flag2{};
};

/// Strided deadline poll for hot loops: consults the clock only every
/// \p stride calls (stride must be a power of two), including the very first
/// one, so an already-expired deadline is noticed immediately. Unbounded
/// clocks reduce the whole poll to a counter increment and one branch.
class deadline_guard
{
public:
    explicit deadline_guard(const deadline_clock& clock, const std::uint32_t stride = 1024) noexcept :
            deadline{clock},
            mask{stride - 1},
            active{clock.bounded()}
    {}

    /// True when the deadline has expired (checked every stride-th call).
    [[nodiscard]] bool poll() noexcept
    {
        if (!active || (counter++ & mask) != 0)
        {
            return false;
        }
        return deadline.expired();
    }

    /// \throws deadline_exceeded every stride-th call when expired
    void poll_or_throw(const char* where)
    {
        if (!active)
        {
            return;
        }
        if ((counter++ & mask) == 0 && deadline.expired())
        {
            throw deadline_exceeded{where};
        }
    }

private:
    const deadline_clock& deadline;
    std::uint32_t counter{0};
    std::uint32_t mask;
    bool active;
};

// ------------------------------------------------------------ combo_outcome

/// How one guarded combination ended. The last two kinds cannot be produced
/// by in-process guarded execution — they are the crash taxonomy of the
/// process-isolated worker supervisor (common/supervisor.hpp): a child that
/// dies on a signal maps to \ref crashed, one the watchdog had to kill after
/// its heartbeat went silent maps to \ref hung.
enum class outcome_kind : std::uint8_t
{
    ok,                   ///< completed (possibly without producing a layout)
    timeout,              ///< global deadline or per-tool budget expired
    verification_failed,  ///< produced layout is not equivalent to its spec
    oom,                  ///< allocation failure (std::bad_alloc)
    internal_error,       ///< any other exception
    crashed,              ///< worker process died on a signal (SIGSEGV, ...)
    hung                  ///< worker stopped heartbeating; watchdog killed it
};

/// Stable lower-case name ("ok", "timeout", ...), used in telemetry counter
/// names, events, and the failure-manifest JSON.
[[nodiscard]] const char* outcome_kind_name(outcome_kind kind) noexcept;

/// Structured result of one guarded portfolio combination — one row of the
/// failure manifest.
struct combo_outcome
{
    /// Combination label, e.g. "NPR@USE" or "ortho@ROW+InOrd (SDN)+45°".
    std::string label;
    outcome_kind kind{outcome_kind::ok};
    /// Failure detail (exception message); empty for ok outcomes.
    std::string message;
    /// Wall-clock seconds spent across all attempts.
    double elapsed_s{0.0};
    /// Attempts performed (> 1 when transient failures were retried).
    std::size_t attempts{1};

    [[nodiscard]] bool is_ok() const noexcept
    {
        return kind == outcome_kind::ok;
    }
};

// -------------------------------------------------------------- retry_policy

/// Bounded retry. Only verification failures are transient: stochastic
/// tools (the annealer, random input orderings) can succeed under a shifted
/// seed. Everything else fails fast; worker-level kinds (crashed, hung) are
/// retried at the job level by journal resume, never inside one process.
struct retry_policy
{
    /// Total attempts (1 = no retry).
    std::size_t max_attempts{1};
};

// -------------------------------------------------------------- run_guarded

/// Parameters of \ref run_guarded.
struct guard_params
{
    deadline_clock deadline{};
    retry_policy retry{};
};

namespace detail
{
/// Reports one retry of \p label (about to re-run after a transient
/// \p kind on attempt \p attempt) to the structured event log. Out-of-line
/// so this header does not pull in the event log.
void note_retry(std::string_view label, std::string_view kind, std::size_t attempt);
}  // namespace detail

/// Executes one portfolio combination under full fault isolation.
///
/// \p body is invoked as `body(attempt)` with attempt = 1, 2, ... and may
/// either return void (completion = ok) or an \ref outcome_kind (so a tool
/// can report a soft timeout without unwinding). Exceptions map to outcomes:
///
/// | escape path                   | outcome_kind        |
/// |-------------------------------|---------------------|
/// | returns                       | ok (or returned kind)|
/// | deadline_exceeded             | timeout             |
/// | verification_error            | verification_failed |
/// | std::bad_alloc                | oom                 |
/// | other std::exception          | internal_error      |
/// | anything else (`...`)         | internal_error      |
///
/// Transient outcomes (see \ref retry_policy) are retried at once up to
/// retry.max_attempts, never past the deadline. An already-expired deadline
/// short-circuits to a timeout outcome without running \p body at all.
template <typename F>
[[nodiscard]] combo_outcome run_guarded(std::string label, const guard_params& params, F&& body)
{
    combo_outcome outcome{};
    outcome.label = std::move(label);
    const auto t0 = std::chrono::steady_clock::now();

    if (params.deadline.expired())
    {
        outcome.kind = outcome_kind::timeout;
        outcome.message = "deadline expired before start";
        outcome.attempts = 0;
        return outcome;
    }

    for (std::size_t attempt = 1;; ++attempt)
    {
        outcome.attempts = attempt;
        try
        {
            if constexpr (std::is_void_v<decltype(body(attempt))>)
            {
                body(attempt);
                outcome.kind = outcome_kind::ok;
            }
            else
            {
                outcome.kind = body(attempt);
            }
            outcome.message.clear();
            if (outcome.kind == outcome_kind::ok)
            {
                break;
            }
        }
        catch (const deadline_exceeded& e)
        {
            outcome.kind = outcome_kind::timeout;
            outcome.message = e.what();
            break;  // the whole run is out of budget: never retried
        }
        catch (const verification_error& e)
        {
            outcome.kind = outcome_kind::verification_failed;
            outcome.message = e.what();
        }
        catch (const std::bad_alloc&)
        {
            outcome.kind = outcome_kind::oom;
            outcome.message = "allocation failure (std::bad_alloc)";
        }
        catch (const std::exception& e)
        {
            outcome.kind = outcome_kind::internal_error;
            outcome.message = e.what();
        }
        catch (...)
        {
            outcome.kind = outcome_kind::internal_error;
            outcome.message = "unknown exception";
        }

        if (outcome.kind != outcome_kind::verification_failed || attempt >= params.retry.max_attempts ||
            params.deadline.expired())
        {
            break;
        }
        detail::note_retry(outcome.label, outcome_kind_name(outcome.kind), attempt);
    }

    outcome.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return outcome;
}

// ------------------------------------------------------------ fault injection

namespace fault
{

/// Installs a fault plan, overriding the environment and any earlier plan
/// (used by tests and the CLI). Spec syntax — comma-separated sites:
///
///   site[:probability[:seed]][,site[:probability[:seed]]...]
///
/// e.g. "verify.check:0.5:7,route.search:0.01". Probability defaults to 1,
/// seed to 1. An empty spec disables injection.
///
/// A site may instead carry a counted kill-point trigger `site=N`: the site
/// fires exactly on its N-th query (N >= 1) and never otherwise. This is how
/// the crash-recovery harness pins a process death to one precise journal
/// append, e.g. `MNT_FAULT_INJECT=journal.kill_after=3` (see
/// service/journal.hpp — that site SIGKILLs the process, simulating a power
/// loss immediately after the third durable journal record).
///
/// \throws mnt::mnt_error on malformed specs
void configure(const std::string& spec);

/// (Re-)reads the plan from the MNT_FAULT_INJECT environment variable; an
/// unset/empty variable disables injection.
void configure_from_environment();

/// True when any site is armed. Single relaxed atomic load — the disabled
/// path of every fault point reduces to this.
[[nodiscard]] bool enabled() noexcept;

/// True when the named site should fail now. Deterministic per (seed, firing
/// index): the n-th query of a site fires iff hash(seed, n) < probability.
[[nodiscard]] bool fire(std::string_view site) noexcept;

/// Currently armed sites, as a normalized spec string (diagnostics/tests).
[[nodiscard]] std::string current_spec();

/// The standard error raised by non-verifier injection sites.
class injected_fault : public mnt_error
{
public:
    explicit injected_fault(const std::string_view site) :
            mnt_error{"injected fault at " + std::string{site} + " (MNT_FAULT_INJECT)"}
    {}
};

/// \throws injected_fault when \p site fires
inline void maybe_fail(const std::string_view site)
{
    if (fire(site))
    {
        throw injected_fault{site};
    }
}

}  // namespace fault

/// Fault points compile to a no-op under -DMNT_NO_FAULT_INJECTION; otherwise
/// the disabled-path cost is one relaxed atomic load and a branch.
#if defined(MNT_NO_FAULT_INJECTION)
#define MNT_FAULT_POINT(site) ((void)0)
#define MNT_FAULT_FIRES(site) (false)
#else
#define MNT_FAULT_POINT(site) (::mnt::res::fault::maybe_fail(site))
#define MNT_FAULT_FIRES(site) (::mnt::res::fault::fire(site))
#endif

}  // namespace mnt::res
