//
// The shared command-line front end of mnt_bench_cli and mnt_bench_serve.
// Unit cases drive fe::parse and fe::populate_options_for directly;
// black-box cases run both binaries: every malformed command line exits 2
// with one stderr line naming the flag and writes nothing, and in-process,
// supervised-CLI and supervised-server generation produce byte-identical
// stores (which only holds if every selection and budget flag reaches the
// workers).
//

#include "front_end.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

using namespace mnt;

namespace
{

/// Generation options plus one binary-specific row, as each binary declares.
struct test_options : fe::generation_options
{
    std::uint16_t port{0};
};

const std::vector<fe::flag<test_options>>& test_flags()
{
    static const auto table = fe::flag_table<test_options>({
        {"--port", "<p>", "TCP port", false,
         [](test_options& x, std::string_view v) { x.port = static_cast<std::uint16_t>(fe::to_count(v, 65535)); }},
        {"--threads", "<n>", "compute threads", false,
         [](test_options& x, std::string_view v) { x.compute_threads = fe::to_count(v); }},
    });
    return table;
}

test_options parse(const std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"binary"};
    argv.insert(argv.end(), args);
    test_options options{};
    EXPECT_TRUE(fe::parse(static_cast<int>(argv.size()), argv.data(), 1, test_flags(), options));
    return options;
}

/// The usage_error message parse throws for \p args ("" when it accepts them).
std::string parse_error(const std::initializer_list<const char*> args)
{
    try
    {
        parse(args);
    }
    catch (const fe::usage_error& e)
    {
        return e.what();
    }
    return "";
}

TEST(FrontEndParse, RejectsUnknownFlagsMissingValuesAndMalformedNumbers)
{
    EXPECT_NE(parse_error({"--sett", "ISCAS85"}).find("'--sett'"), std::string::npos);
    EXPECT_NE(parse_error({"--set", "S", "stray"}).find("'stray'"), std::string::npos);
    EXPECT_NE(parse_error({"--jobs"}).find("--jobs: missing value"), std::string::npos);
    EXPECT_NE(parse_error({"--jobs", "abc"}).find("--jobs:"), std::string::npos);
    EXPECT_NE(parse_error({"--threads", "1x"}).find("--threads:"), std::string::npos);
    EXPECT_NE(parse_error({"--retries", "-1"}).find("--retries:"), std::string::npos);
    EXPECT_NE(parse_error({"--deadline", "-3"}).find("--deadline:"), std::string::npos);
    EXPECT_NE(parse_error({"--deadline", "nan"}).find("--deadline:"), std::string::npos);
    EXPECT_NE(parse_error({"--family-seed", "0xZZ"}).find("--family-seed:"), std::string::npos);
    EXPECT_NE(parse_error({"--family", "nand"}).find("--family:"), std::string::npos);
    // retries + 1 attempts would wrap to zero
    EXPECT_NE(parse_error({"--retries", "18446744073709551615"}).find("--retries:"), std::string::npos);
    EXPECT_NE(parse_error({"--port", "65536"}).find("--port:"), std::string::npos);
    EXPECT_EQ(parse({"--port", "65535"}).port, 65535);
}

TEST(FrontEndParse, AcceptedValuesKeepTheirMeaning)
{
    const auto options = parse({"--jobs", "0", "--shards", "0", "--retries", "2", "--deadline", "1.5", "--family",
                                "aoi", "--family-seed", "0x1234", "--family-count", "4", "--threads", "3"});
    EXPECT_EQ(options.jobs, 1U);    // 0 clamps to 1
    EXPECT_EQ(options.shards, 1U);  // likewise
    EXPECT_TRUE(options.supervise);  // --shards implies --supervise
    EXPECT_EQ(options.max_attempts, 3U);
    EXPECT_DOUBLE_EQ(options.deadline_s, 1.5);
    EXPECT_EQ(options.family_seed, 0x1234U);
    EXPECT_EQ(options.family_count, 4U);
    EXPECT_EQ(options.compute_threads, 3U);
    EXPECT_EQ(parse({"--family-seed", "4660"}).family_seed, 0x1234U);

    std::vector<const char*> argv{"binary", "--set", "S", "--help", "--bogus"};
    test_options help{};
    EXPECT_FALSE(fe::parse(static_cast<int>(argv.size()), argv.data(), 1, test_flags(), help));
}

TEST(FrontEndParse, ForwardedTokensKeepCommandLineOrder)
{
    const auto options = parse({"--deterministic", "--name", "XOR", "--store", "s", "--jobs", "0", "--report", "r.json",
                                "--set", "Trindade16", "--shards", "2", "--family-seed", "0x10", "--retries", "1",
                                "--threads", "2", "--deadline", "60"});
    const std::vector<std::string> expected{"--deterministic", "--name", "XOR", "--jobs", "0",  "--set",
                                            "Trindade16", "--family-seed", "0x10", "--retries", "1",
                                            "--deadline", "60"};
    EXPECT_EQ(options.forwarded, expected);
}

TEST(FrontEndPopulate, WorkersGetForwardedFlagsAndTheirComputeThreads)
{
    auto options = parse({"--set", "Trindade16", "--store", "s", "--shards", "3", "--threads", "5", "--jobs", "2"});
    auto populate = fe::populate_options_for(options, {"generate", "--store", "s"}, "--threads");
    EXPECT_EQ(populate.workers, 3U);
    std::vector<std::string> expected{sup::self_executable(), "generate", "--store", "s", "--set", "Trindade16",
                                      "--jobs", "2", "--threads", "5"};
    EXPECT_EQ(populate.worker_command, expected);

    // no pinned count: a fair share of the machine per shard
    options.compute_threads.reset();
    populate = fe::populate_options_for(options, {}, "--pd-threads");
    expected = {sup::self_executable(), "--set", "Trindade16", "--jobs", "2", "--pd-threads",
                std::to_string(std::max<std::size_t>(1, trt::resolve_auto_threads() / 3))};
    EXPECT_EQ(populate.worker_command, expected);

    // unsupervised runs start no workers
    EXPECT_TRUE(fe::populate_options_for(parse({"--store", "s"}), {}, "--threads").worker_command.empty());
}

TEST(FrontEndPopulate, WorkersRebuildTheSameJobsAndBudgets)
{
    const auto parent = parse({"--family", "aoi", "--family-count", "4", "--family-seed", "0x1234", "--deadline",
                               "60", "--retries", "2", "--jobs", "2", "--deterministic", "--shards", "2", "--store",
                               "s"});
    const auto populate = fe::populate_options_for(parent, {}, "--threads");
    std::vector<const char*> argv;
    for (const auto& token : populate.worker_command)
    {
        argv.push_back(token.c_str());
    }
    test_options worker{};
    ASSERT_TRUE(fe::parse(static_cast<int>(argv.size()), argv.data(), 1, test_flags(), worker));

    const auto names = [](const fe::generation_options& o)
    {
        std::vector<std::string> out;
        for (const auto& entry : fe::selected_entries(o))
        {
            out.push_back(entry.set + "/" + entry.name);
        }
        return out;
    };
    EXPECT_EQ(names(worker), names(parent));
    EXPECT_EQ(names(parent).size(), 4U);
    EXPECT_EQ(fe::family_for(worker)->seed, 0x1234U);
    const auto worker_populate = fe::populate_options_for(worker, {}, "--threads");
    EXPECT_EQ(worker_populate.params.deadline_s, populate.params.deadline_s);
    EXPECT_EQ(worker_populate.params.max_attempts, populate.params.max_attempts);
    EXPECT_EQ(worker_populate.params.jobs, populate.params.jobs);
    EXPECT_EQ(worker_populate.deterministic, populate.deterministic);
    EXPECT_FALSE(worker.supervise);  // a worker never supervises workers of its own
}

// ------------------------------------------------------------------ black box

/// A fresh directory per test process (ctest runs suites in parallel).
class scratch_dir
{
public:
    scratch_dir()
    {
        auto pattern = (std::filesystem::temp_directory_path() / "mnt_front_end_XXXXXX").string();
        if (::mkdtemp(pattern.data()) == nullptr)
        {
            throw std::runtime_error{"mkdtemp failed"};
        }
        path = pattern;
    }

    ~scratch_dir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    scratch_dir(const scratch_dir&) = delete;
    scratch_dir& operator=(const scratch_dir&) = delete;

    std::filesystem::path path;
};

struct run_result
{
    int code{-1};
    std::string out;
    std::string err;
};

std::string slurp(const std::filesystem::path& path)
{
    std::ifstream file{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{file}, std::istreambuf_iterator<char>{}};
}

/// Runs \p binary with \p args (no shell quoting needed: no spaces) inside
/// \p cwd; stdout and stderr are captured next to it, not inside it.
run_result run(const char* binary, const std::string& args, const std::filesystem::path& cwd)
{
    const auto out = cwd.string() + ".out";
    const auto err = cwd.string() + ".err";
    std::filesystem::create_directories(cwd);
    const auto command = "cd '" + cwd.string() + "' && '" + binary + "' " + args + " > '" + out + "' 2> '" + err + "'";
    const auto status = std::system(command.c_str());
    run_result result{WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status), slurp(out), slurp(err)};
    std::filesystem::remove(out);
    std::filesystem::remove(err);
    return result;
}

TEST(FrontEndBinaries, EveryUsageErrorExitsTwoNamingTheFlagAndWritesNothing)
{
    const scratch_dir dir{};
    struct bad_line
    {
        const char* binary;
        std::string args;
        std::string named;
    };
    const std::vector<bad_line> lines{
        {MNT_BENCH_CLI, "list --jobs", "--jobs"},
        {MNT_BENCH_CLI, "list --jobs abc", "--jobs"},
        {MNT_BENCH_CLI, "list --sett ISCAS85", "--sett"},
        {MNT_BENCH_CLI, "list --retries -1", "--retries"},
        {MNT_BENCH_CLI, "list --deadline -3", "--deadline"},
        {MNT_BENCH_CLI, "list --family-seed 0xZZ", "--family-seed"},
        {MNT_BENCH_CLI, "list --threads 1x", "--threads"},
        {MNT_BENCH_CLI, "generate --store fresh --jobs abc", "--jobs"},
        {MNT_BENCH_CLI, "bogus", "unknown command 'bogus'"},
        {MNT_BENCH_SERVE, "--prot 8080", "--prot"},
        {MNT_BENCH_SERVE, "--port 70000", "--port"},
        {MNT_BENCH_SERVE, "--port abc", "--port"},
        {MNT_BENCH_SERVE, "--idle-timeout x", "--idle-timeout"},
        {MNT_BENCH_SERVE, "--threads", "--threads"},
        {MNT_BENCH_SERVE, "--store fresh --port abc", "--port"},
    };
    for (std::size_t i = 0; i < lines.size(); ++i)
    {
        const auto& line = lines[i];
        const auto cwd = dir.path / std::to_string(i);
        const auto result = run(line.binary, line.args, cwd);
        SCOPED_TRACE(line.args);
        EXPECT_EQ(result.code, 2);
        EXPECT_TRUE(result.out.empty()) << result.out;
        EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1) << result.err;
        EXPECT_NE(result.err.find(line.named), std::string::npos) << result.err;
        EXPECT_TRUE(std::filesystem::is_empty(cwd));
    }
}

TEST(FrontEndBinaries, HelpIsPrintedFromTheTableAndExitsZero)
{
    const scratch_dir dir{};
    for (const auto& args : {"--help", "help", "list -h", ""})
    {
        const auto result = run(MNT_BENCH_CLI, args, dir.path / "cli");
        EXPECT_EQ(result.code, 0) << args;
        EXPECT_NE(result.out.find("--family-manifest <file>"), std::string::npos) << args;
        EXPECT_EQ(result.out.find("--worker-job"), std::string::npos);
    }
    const auto result = run(MNT_BENCH_SERVE, "--port 1 -h", dir.path / "serve");
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("--pd-threads <n>"), std::string::npos);
    EXPECT_EQ(result.out.find("--worker-job"), std::string::npos);
}

/// manifest.json bytes plus the sorted blob file names of a store.
std::string store_signature(const std::filesystem::path& store)
{
    std::vector<std::string> blobs;
    for (const auto& entry : std::filesystem::directory_iterator{store / "blobs"})
    {
        blobs.push_back(entry.path().filename().string());
    }
    std::sort(blobs.begin(), blobs.end());
    std::ostringstream signature;
    signature << slurp(store / "manifest.json");
    for (const auto& blob : blobs)
    {
        signature << '\n' << blob;
    }
    return signature.str();
}

TEST(FrontEndBinaries, SupervisedGenerationMatchesInProcessByteForByte)
{
    const scratch_dir dir{};
    for (const std::string gen : {"--set Trindade16 --name XOR --deterministic",
                                  "--family aoi --family-count 4 --family-seed 0x1234 --deterministic"})
    {
        SCOPED_TRACE(gen);
        const auto in_process = run(MNT_BENCH_CLI, "generate --store s " + gen, dir.path / "in_process");
        const auto cli = run(MNT_BENCH_CLI, "generate --store s --shards 2 " + gen, dir.path / "cli");
        const auto serve = run(MNT_BENCH_SERVE, "--generate --no-serve --store s --shards 2 " + gen, dir.path / "serve");
        for (const auto* result : {&in_process, &cli, &serve})
        {
            EXPECT_EQ(result->code, 0) << result->err;
            EXPECT_NE(result->out.find("generated: "), std::string::npos);
        }
        EXPECT_NE(cli.out.find("0 crashed"), std::string::npos) << cli.out;
        EXPECT_NE(serve.out.find("0 crashed"), std::string::npos) << serve.out;

        const auto golden = store_signature(dir.path / "in_process" / "s");
        EXPECT_FALSE(golden.empty());
        EXPECT_EQ(store_signature(dir.path / "cli" / "s"), golden);
        EXPECT_EQ(store_signature(dir.path / "serve" / "s"), golden);
        std::filesystem::remove_all(dir.path);
        std::filesystem::create_directories(dir.path);
    }
}

}  // namespace
