/**
 * @file
 * Shared machinery of the end-to-end benchmark: the benchmark's own
 * seeded generator (inputs never come from the library's RNG or data
 * synthesizers, so a library change cannot change them), the
 * percentile rule, failure accounting, metric-name validation, the
 * in-memory span log of the traced run, and the result report.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

/** splitmix64 finalizer: the seed mixer for every derived stream. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e37'79b9'7f4a'7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
    return x ^ (x >> 31);
}

/** Stream key of several integers (order-sensitive). */
inline std::uint64_t
streamKey(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0)
{
    return mix64(mix64(mix64(a) ^ b) ^ c);
}

/** xoshiro256** seeded through splitmix64. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed);

    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n); n >= 1. */
    std::uint64_t below(std::uint64_t n);
    /** Standard normal (Box-Muller; the pair's second value is kept
     *  for the next call). */
    double gaussian();
    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

  private:
    std::uint64_t s[4];
    double spare = 0.0;
    bool hasSpare = false;
};

/**
 * Open-loop Poisson arrival offsets (seconds from phase start) at
 * @p rate_qps over @p seconds. The same seed always gives the same
 * schedule.
 */
std::vector<double> poissonSchedule(std::uint64_t seed, double rate_qps,
                                    double seconds);

/** Minimum samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** A tail percentile and the evidence behind it. */
struct Tail
{
    double value = 0.0;
    /** Quantile actually reported (lower than asked when the sample
     *  cannot support the one asked for). */
    double quantile = 0.0;
    std::size_t samples = 0;
    /** Samples ranked above the reported one. */
    std::size_t beyond = 0;
    /** The asked-for quantile had >= kMinBeyond samples beyond it. */
    bool supported = false;
};

/**
 * The percentile rule: report quantile @p q only when at least
 * kMinBeyond samples rank above it. When they do not, the highest
 * quantile that has kMinBeyond samples beyond it is reported instead
 * (supported = false); with fewer than kMinBeyond + 1 samples that is
 * the minimum.
 */
Tail tailPercentile(std::vector<double> samples, double q);

/** Median (nearest rank); 0 when empty. */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &samples);

/** Metric names: 1..64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(std::string_view name);

/** Per-request outcomes of one serving phase, against attempts. */
struct Outcomes
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejectedOverload = 0;
    std::uint64_t rejectedQuota = 0;
    /** Invalid / ShuttingDown: never expected, still counted. */
    std::uint64_t rejectedOther = 0;
    std::uint64_t timedOut = 0;
    /** Done, but the match list differs from the serial reference. */
    std::uint64_t wrong = 0;
    /** Done with incomplete shard coverage. */
    std::uint64_t partial = 0;
    /** Cancelled by the server (never asked for by the benchmark). */
    std::uint64_t cancelled = 0;

    std::uint64_t
    failed() const
    {
        return rejectedOverload + rejectedQuota + rejectedOther +
               timedOut + wrong + partial + cancelled;
    }

    /** failed / attempted; 0 when nothing was attempted. */
    double failFraction() const;

    Outcomes &operator+=(const Outcomes &other);
};

/** Layer-boundary stage names (one vocabulary for spans and output). */
enum class Stage
{
    Admission,
    QueueWait,
    Compile,
    Execute,
    Range,
    Probe,
    Gather,
    ConfirmDtw,
    ConfirmEuclid,
    Merge,
    Ingest,
    Hash,
    Schedule,
    Repair,
    EventLoop,
    TraceExport,
};

const char *stageName(Stage stage);

/** One recorded span: a layer call, timed from the benchmark side. */
struct Span
{
    Stage stage = Stage::Admission;
    /** Request (or repetition) the span belongs to. */
    std::uint64_t request = 0;
    /** Nanoseconds since the log's epoch. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * In-memory span recorder of the traced run. Disabled logs record
 * nothing, so the untraced run pays one branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    void add(Stage stage, std::uint64_t request, Clock::time_point start,
             Clock::time_point end);

    /** Record a span of known duration ending now (derived spans). */
    void addDuration(Stage stage, std::uint64_t request, double ms);

    /** Durations (ms) of every span of @p stage, in record order. */
    std::vector<double> durationsMs(Stage stage) const;

    /** Write every span as TSV (stage, request, start, end ns). */
    bool write(const std::string &path) const;

  private:
    bool on;
    Clock::time_point epoch;
    std::vector<Span> spans;
};

/** One output metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Ordered metric collection with name/duplicate validation. */
class Report
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value);
    /** Value of @p name; nullopt when absent. */
    std::optional<double> get(const std::string &name) const;

    /** The result line: correct/attempted/failed/metrics. */
    std::string resultJson(bool correct, std::uint64_t attempted,
                           std::uint64_t failed) const;

  private:
    std::vector<Metric> all;
};

/** FNV-style running digest over 64-bit words. */
class Digest
{
  public:
    void add(std::uint64_t word);
    void add(double value);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
};

} // namespace e2e
