/**
 * @file
 * End-to-end benchmark of the SCALO reproduction: one workload per
 * run, seeded inputs, correctness checks on every answer, and one
 * JSON result line (the last line of stdout).
 *
 *     e2ebench --workload serve-unique --seed 1 --seconds 40 --trace 0
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the same
 * workload with spans recorded around every public call and reports
 * the per-layer metrics instead (spans are written as TSV under
 * .bench_build/e2ebench-spans/). Lines before the result start with
 * '#' and carry the build stamp, sample counts and failures.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workload.hpp"

namespace e2e {

namespace {

/** Two workloads, each putting its weight on one half of the system
 *  and running a lighter copy of the other (see NOTES.md). Open-loop
 *  rates are constants (so that runs compare) at about a tenth of the
 *  saturation throughput on a 4-vCPU virtual machine whose speed
 *  drifted by tens of percent from minute to minute: at a quarter of
 *  saturation, queueing turned a competing load into 1.6x swings of
 *  latency, at an eighth into 1.2x, as for compute-bound figures. The
 *  shares of --seconds add up to about one run; each open loop yields
 *  at least 1100 post-warm-up latency samples (11 beyond the p99) at
 *  --seconds 40. The stepping rate (traced run only) is where batches
 *  form: about 7 requests on the catalog. */
const Workload kWorkloads[] = {
    // Distinct queries over 32 rings, plus the flat monolithic fabric
    // with its Chrome trace.
    {"serve-unique",
     {32, 4, 12'288, true, 40.0, 0.75, 0.1, 40.0},
     {32, 1, 1'000.0, true, false, false, 0.12}},
    // The decomposed 256-node fabric under cluster faults, plus the
    // repeated-plan catalog served over 256 small stores.
    {"fabric-256",
     {256, 16, 128, false, 150.0, 0.45, 0.1, 1'200.0},
     {256, 16, 2'000.0, false, true, true, 0.45}},
};

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Host CPU counters (/proc/stat "cpu" line): steal and total
 *  jiffies; zeros where the file is unreadable. */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;
};

CpuTimes
cpuTimes()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    CpuTimes times;
    if (!(stat >> label) || label != "cpu")
        return times;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        double value = 0.0;
        if (!(stat >> value))
            break;
        times.total += value;
        if (field == 7)
            times.steal = value;
    }
    return times;
}

/**
 * Wall time of a fixed single-threaded integer loop: a probe of the
 * host's speed at one moment, printed beside the results so that a
 * slow host phase can be told from a slow program.
 */
double
calibrationMs()
{
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e37'79b9'7f4a'7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double ms = msSince(start);
    // Keep the loop: its result decides nothing but must be used.
    return x == 0 ? ms + 1.0 : ms;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            args.trace = std::atoi(value);
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() &&
           args.seconds > 0.0 && (args.trace == 0 || args.trace == 1);
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    const std::string type = E2E_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo";
#else
    return false;
#endif
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &workload : kWorkloads)
        if (workload.name == name)
            return &workload;
    return nullptr;
}

void
Context::fail(const std::string &what)
{
    failures.push_back(what);
    std::printf("# FAIL %s\n", what.c_str());
    std::fflush(stdout);
}

void
Context::note(const std::string &name, const std::string &text) const
{
    std::printf("# %s: %s\n", name.c_str(), text.c_str());
    std::fflush(stdout);
}

int
run(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    const Workload *workload = findWorkload(args.workload);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    if (!optimisedBuild()) {
        std::fprintf(stderr, "refusing to report from a non-optimised "
                             "build (%s)\n",
                     E2E_BUILD_TYPE);
        return 3;
    }

    Context ctx;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.trace = args.trace == 1;
    ctx.spans = SpanLog(ctx.trace);
    // One CPU is left to the host: on a 4-vCPU virtual machine, four
    // busy threads drew 12-16% steal time and made serving slower and
    // far less steady than three (5-6% steal).
    const unsigned nproc = std::thread::hardware_concurrency();
    ctx.threadBudget =
        std::clamp<std::size_t>(nproc > 1 ? nproc - 1 : 1, 1, 3);
    ctx.note("stamp",
             "workload=" + workload->name +
                 " seed=" + std::to_string(ctx.seed) +
                 " seconds=" + std::to_string(ctx.seconds) +
                 " trace=" + std::to_string(args.trace) +
                 " build=" + E2E_BUILD_TYPE + " simd=" + E2E_SIMD +
                 " march=" + E2E_MARCH + " compiler=" + E2E_COMPILER +
                 " nproc=" + std::to_string(nproc) +
                 " threads=" + std::to_string(ctx.threadBudget));

    const CpuTimes cpu_start = cpuTimes();
    const double calibration_start = calibrationMs();

    // Serving setup first (engine builds), then the phases alternate
    // round by round.
    FabricPhase fabric_phase(workload->fabric, ctx);
    ServePhase serve_phase(workload->serve, ctx);
    for (std::size_t k = 0; k < kRounds; ++k) {
        fabric_phase.round(k);
        serve_phase.round(k);
    }
    // Serving rounds check nothing: every failure so far is the
    // fabric's.
    const FabricTotals fabric = fabric_phase.finish();
    const std::uint64_t fabric_failures = ctx.failures.size();
    const ServeTotals serve = serve_phase.finish();

    const CpuTimes cpu_end = cpuTimes();
    const double steal_share =
        cpu_end.total > cpu_start.total
            ? (cpu_end.steal - cpu_start.steal) /
                  (cpu_end.total - cpu_start.total)
            : 0.0;
    ctx.note("host", "steal " + std::to_string(100.0 * steal_share) +
                         "% of CPU time during the run; calibration "
                         "loop " +
                         std::to_string(calibration_start) +
                         " ms at start, " +
                         std::to_string(calibrationMs()) + " ms at end");

    if (ctx.trace) {
        ctx.report.add("serve.fail_frac", "fraction",
                       ctx.outcomes.failFraction());
        const std::filesystem::path dir =
            std::filesystem::path(".bench_build") / "e2ebench-spans";
        std::error_code error;
        std::filesystem::create_directories(dir, error);
        const std::string path =
            (dir / (workload->name + "-" + std::to_string(ctx.seed) +
                    ".tsv"))
                .string();
        if (!error && ctx.spans.write(path))
            ctx.note("spans", path);
    } else {
        ctx.report.add("setup_s", "s", serve.setupS + fabric.setupS);
        ctx.report.add("peak_rss_mb", "MB", peakRssMb());
    }

    const std::uint64_t attempted =
        ctx.outcomes.attempted + fabric.reps;
    const std::uint64_t failed = ctx.outcomes.failed() + fabric_failures;
    const bool correct = ctx.failures.empty();
    std::printf("%s\n",
                ctx.report.resultJson(correct, attempted, failed).c_str());
    return correct ? 0 : 1;
}

} // namespace e2e

int
main(int argc, char **argv)
{
    try {
        return e2e::run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "e2ebench: %s\n", error.what());
        return 2;
    }
}
