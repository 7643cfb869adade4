#include "common/resilience.hpp"

#include "telemetry/eventlog.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace mnt::res
{

namespace
{

/// splitmix64: the standard 64-bit finalizer-style mixer — deterministic,
/// stateless, good enough for fault-firing decisions.
std::uint64_t mix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash value.
double unit_interval(const std::uint64_t h) noexcept
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* outcome_kind_name(const outcome_kind kind) noexcept
{
    switch (kind)
    {
        case outcome_kind::ok: return "ok";
        case outcome_kind::timeout: return "timeout";
        case outcome_kind::verification_failed: return "verification_failed";
        case outcome_kind::oom: return "oom";
        case outcome_kind::internal_error: return "internal_error";
        case outcome_kind::crashed: return "crashed";
        case outcome_kind::hung: return "hung";
    }
    return "internal_error";
}

namespace detail
{

void note_retry(const std::string_view label, const std::string_view kind, const std::size_t attempt)
{
    tel::log_event(tel::log_severity::warn, "resilience", "retrying after transient failure",
                   {{"combo", std::string{label}},
                    {"kind", std::string{kind}},
                    {"attempt", std::to_string(attempt)}});
}

}  // namespace detail

namespace fault
{

namespace
{

struct site_plan
{
    std::string site;
    double probability{1.0};
    std::uint64_t seed{1};
    /// Counted kill-point trigger (`site=N` spec form): fire exactly on the
    /// N-th query, never otherwise. 0 = probabilistic mode.
    std::uint64_t fire_at{0};
    /// Firing index; combined with the seed this makes injection
    /// deterministic per call sequence yet thread-safe.
    std::atomic<std::uint64_t> queries{0};

    site_plan(std::string s, const double p, const std::uint64_t sd, const std::uint64_t at) :
            site{std::move(s)},
            probability{p},
            seed{sd},
            fire_at{at}
    {}
};

struct plan_state
{
    std::mutex mutex;
    /// Sites are installed wholesale under the mutex; fire() only reads the
    /// vector after the armed flag (release/acquire pair) is observed set.
    std::vector<std::unique_ptr<site_plan>> sites;
    std::atomic<bool> armed{false};
    std::once_flag env_once;
};

plan_state& state()
{
    static plan_state s;
    return s;
}

std::vector<std::unique_ptr<site_plan>> parse_spec(const std::string& spec)
{
    std::vector<std::unique_ptr<site_plan>> sites;
    std::size_t begin = 0;
    while (begin <= spec.size())
    {
        auto end = spec.find(',', begin);
        if (end == std::string::npos)
        {
            end = spec.size();
        }
        const auto entry = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty())
        {
            if (end == spec.size())
            {
                break;
            }
            continue;
        }

        // counted kill-point form: `site=N` fires exactly on the N-th query
        const auto eq = entry.find('=');
        if (eq != std::string::npos && entry.find(':') == std::string::npos)
        {
            const auto site = entry.substr(0, eq);
            const auto count_text = entry.substr(eq + 1);
            if (site.empty())
            {
                throw mnt_error{"MNT_FAULT_INJECT: empty site name in '" + spec + "'"};
            }
            std::uint64_t fire_at = 0;
            try
            {
                std::size_t consumed = 0;
                fire_at = std::stoull(count_text, &consumed);
                if (consumed != count_text.size() || fire_at == 0)
                {
                    throw std::invalid_argument{count_text};
                }
            }
            catch (const std::exception&)
            {
                throw mnt_error{"MNT_FAULT_INJECT: invalid trigger count '" + count_text + "' for site '" + site +
                                "' (expected site=N with N >= 1)"};
            }
            sites.push_back(std::make_unique<site_plan>(site, 1.0, std::uint64_t{1}, fire_at));
            continue;
        }

        const auto p1 = entry.find(':');
        const auto site = entry.substr(0, p1);
        if (site.empty())
        {
            throw mnt_error{"MNT_FAULT_INJECT: empty site name in '" + spec + "'"};
        }
        double probability = 1.0;
        std::uint64_t seed = 1;
        if (p1 != std::string::npos)
        {
            const auto p2 = entry.find(':', p1 + 1);
            const auto prob_text = entry.substr(p1 + 1, p2 == std::string::npos ? std::string::npos : p2 - p1 - 1);
            try
            {
                std::size_t consumed = 0;
                probability = std::stod(prob_text, &consumed);
                if (consumed != prob_text.size())
                {
                    throw std::invalid_argument{prob_text};
                }
            }
            catch (const std::exception&)
            {
                throw mnt_error{"MNT_FAULT_INJECT: invalid probability '" + prob_text + "' for site '" + site +
                                "'"};
            }
            if (probability < 0.0 || probability > 1.0)
            {
                throw mnt_error{"MNT_FAULT_INJECT: probability for site '" + site + "' must be in [0, 1]"};
            }
            if (p2 != std::string::npos)
            {
                const auto seed_text = entry.substr(p2 + 1);
                try
                {
                    std::size_t consumed = 0;
                    seed = std::stoull(seed_text, &consumed);
                    if (consumed != seed_text.size())
                    {
                        throw std::invalid_argument{seed_text};
                    }
                }
                catch (const std::exception&)
                {
                    throw mnt_error{"MNT_FAULT_INJECT: invalid seed '" + seed_text + "' for site '" + site + "'"};
                }
            }
        }
        sites.push_back(std::make_unique<site_plan>(site, probability, seed, std::uint64_t{0}));
    }
    return sites;
}

void install(std::vector<std::unique_ptr<site_plan>> sites)
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock{s.mutex};
    s.armed.store(false, std::memory_order_release);  // fire() falls back to disabled during the swap
    s.sites = std::move(sites);
    s.armed.store(!s.sites.empty(), std::memory_order_release);
}

void ensure_env_loaded()
{
    std::call_once(state().env_once,
                   []
                   {
                       const char* env = std::getenv("MNT_FAULT_INJECT");
                       if (env != nullptr && *env != '\0')
                       {
                           install(parse_spec(env));
                       }
                   });
}

}  // namespace

void configure(const std::string& spec)
{
    auto sites = parse_spec(spec);
    ensure_env_loaded();  // claim the once-flag so a later fire() cannot clobber this plan
    install(std::move(sites));
}

void configure_from_environment()
{
    const char* env = std::getenv("MNT_FAULT_INJECT");
    ensure_env_loaded();
    install(env != nullptr && *env != '\0' ? parse_spec(env) : std::vector<std::unique_ptr<site_plan>>{});
}

bool enabled() noexcept
{
    return state().armed.load(std::memory_order_acquire);
}

bool fire(const std::string_view site) noexcept
{
    auto& s = state();
    if (!s.armed.load(std::memory_order_acquire))
    {
        // cheap disabled path; the env is only consulted once someone arms
        // injection or the process queries with the variable set
        static const bool env_present = std::getenv("MNT_FAULT_INJECT") != nullptr;
        if (!env_present)
        {
            return false;
        }
        ensure_env_loaded();
        if (!s.armed.load(std::memory_order_acquire))
        {
            return false;
        }
    }
    const std::lock_guard<std::mutex> lock{s.mutex};
    for (const auto& plan : s.sites)
    {
        if (plan->site == site)
        {
            if (plan->probability <= 0.0)
            {
                return false;
            }
            const auto n = plan->queries.fetch_add(1, std::memory_order_relaxed) + 1;
            if (plan->fire_at > 0)
            {
                return n == plan->fire_at;
            }
            if (plan->probability >= 1.0)
            {
                return true;
            }
            return unit_interval(mix64(plan->seed ^ mix64(n))) < plan->probability;
        }
    }
    return false;
}

std::string current_spec()
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock{s.mutex};
    std::string spec;
    for (const auto& plan : s.sites)
    {
        if (!spec.empty())
        {
            spec += ',';
        }
        char buffer[64];
        if (plan->fire_at > 0)
        {
            std::snprintf(buffer, sizeof(buffer), "=%llu", static_cast<unsigned long long>(plan->fire_at));
        }
        else
        {
            std::snprintf(buffer, sizeof(buffer), ":%g:%llu", plan->probability,
                          static_cast<unsigned long long>(plan->seed));
        }
        spec += plan->site + buffer;
    }
    return spec;
}

}  // namespace fault

}  // namespace mnt::res
