//
// Worker probe: a tiny helper binary the supervisor and crash-recovery
// tests launch as a supervised child. Each mode exercises one termination
// path — clean exit, crash, hang, OOM, CPU burn — plus a real `job` mode
// that runs one regeneration job through run_regen_job, so the supervised
// populate path can be tested end to end without shelling out to the CLIs.
//
// usage: mnt_worker_probe <mode> [args...]
//   exit <code>                 exit with the given code
//   segv                        die on SIGSEGV immediately
//   stderr-then-segv            write a marker line to stderr, then SIGSEGV
//   spin                        sleep forever without heartbeating
//   spin-ignore-term            same, but with SIGTERM ignored (forces SIGKILL)
//   heartbeat <n> <interval_ms> emit n heartbeats at the given interval, exit 0
//   alloc <mb>                  allocate and touch <mb> MiB; bad_alloc -> exit 42
//   cpu-burn                    burn CPU forever (for RLIMIT_CPU tests)
//   job <store> [--deadline <s>] ... --worker-job <id>
//                               run one regeneration job (deterministic) over
//                               the Trindade16 entries against <store>
//

#include "benchmarks/suites.hpp"
#include "common/supervisor.hpp"
#include "service/populate.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

// Under AddressSanitizer the segv modes must still die by the signal they
// raise, as in a normal build: ASan's own SIGSEGV handler would print a
// report and exit with status 1 instead. Other builds never call this hook.
extern "C" const char* __asan_default_options()
{
    return "handle_segv=0";
}

namespace
{

[[noreturn]] void die_segv()
{
    std::raise(SIGSEGV);
    std::abort();  // unreachable; raise of a default-fatal signal does not return
}

int run_job_mode(const int argc, char** argv)
{
    // argv: job <store> [flags...] --worker-job <id>
    if (argc < 3)
    {
        std::fprintf(stderr, "probe: job mode needs a store path\n");
        return 2;
    }
    const std::string store_root{argv[2]};
    std::string job_id{};
    for (int i = 3; i < argc; ++i)
    {
        if (std::strcmp(argv[i], "--worker-job") == 0 && i + 1 < argc)
        {
            job_id = argv[++i];
        }
    }
    if (job_id.empty())
    {
        std::fprintf(stderr, "probe: job mode needs --worker-job <id>\n");
        return 2;
    }
    mnt::svc::populate_options options{};
    options.deterministic = true;
    options.journal = false;
    const auto entries = mnt::bm::trindade16();
    try
    {
        const auto report = mnt::svc::run_regen_job(store_root, entries, job_id, options);
        return report.jobs_run == 1 ? 0 : 3;
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "probe: job failed: %s\n", e.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc < 2)
    {
        std::fprintf(stderr, "probe: missing mode\n");
        return 2;
    }
    const std::string mode{argv[1]};

    if (mode == "exit")
    {
        return argc > 2 ? std::atoi(argv[2]) : 0;
    }
    if (mode == "segv")
    {
        die_segv();
    }
    if (mode == "stderr-then-segv")
    {
        std::fprintf(stderr, "probe: about to crash on purpose\n");
        std::fflush(stderr);
        die_segv();
    }
    if (mode == "spin" || mode == "spin-ignore-term")
    {
        if (mode == "spin-ignore-term")
        {
            std::signal(SIGTERM, SIG_IGN);
        }
        for (;;)
        {
            std::this_thread::sleep_for(std::chrono::milliseconds{10});
        }
    }
    if (mode == "heartbeat")
    {
        const int n = argc > 2 ? std::atoi(argv[2]) : 10;
        const int interval_ms = argc > 3 ? std::atoi(argv[3]) : 50;
        for (int i = 0; i < n; ++i)
        {
            mnt::sup::heartbeat();
            std::this_thread::sleep_for(std::chrono::milliseconds{interval_ms});
        }
        return 0;
    }
    if (mode == "alloc")
    {
        const std::size_t mb = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 512;
        try
        {
            auto* block = new char[mb * 1024 * 1024];
            for (std::size_t i = 0; i < mb * 1024 * 1024; i += 4096)
            {
                block[i] = static_cast<char>(i);
            }
            std::printf("%c", block[0]);  // defeat dead-store elimination
            delete[] block;
            return 0;
        }
        catch (const std::bad_alloc&)
        {
            std::_Exit(42);
        }
    }
    if (mode == "cpu-burn")
    {
        volatile std::uint64_t x = 0;
        for (;;)
        {
            x = x + 1;
        }
    }
    if (mode == "job")
    {
        return run_job_mode(argc, argv);
    }

    std::fprintf(stderr, "probe: unknown mode '%s'\n", mode.c_str());
    return 2;
}
