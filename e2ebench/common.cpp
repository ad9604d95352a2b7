#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <stdexcept>

namespace e2e {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** Nearest-rank quantile of already-sorted samples; 0 when empty. */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(std::clamp(q, 0.0, 1.0) *
                  static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (std::uint64_t &word : s) {
        x = mix64(x);
        word = x;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return n <= 1 ? 0 : next() % n;
}

double
Rng::gaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    const double u1 = 1.0 - uniform(); // (0, 1]: log is finite
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    spare = r * std::sin(2.0 * std::numbers::pi * u2);
    hasSpare = true;
    return r * std::cos(2.0 * std::numbers::pi * u2);
}

double
Rng::exponential(double rate)
{
    return -std::log(1.0 - uniform()) / rate;
}

std::vector<double>
poissonSchedule(std::uint64_t seed, double rate_qps, double seconds)
{
    std::vector<double> due;
    if (rate_qps <= 0.0 || seconds <= 0.0)
        return due;
    Rng rng(streamKey(seed, 0x9015'5011));
    double t = rng.exponential(rate_qps);
    while (t < seconds) {
        due.push_back(t);
        t += rng.exponential(rate_qps);
    }
    return due;
}

Tail
tailPercentile(std::vector<double> samples, double q)
{
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const auto beyond_of = [n](double quantile) {
        const double rank =
            std::ceil(quantile * static_cast<double>(n));
        const std::size_t index =
            rank < 1.0 ? 0
                       : std::min(static_cast<std::size_t>(rank) - 1,
                                  n - 1);
        return n - 1 - index;
    };
    tail.quantile = q;
    tail.beyond = beyond_of(q);
    tail.supported = tail.beyond >= kMinBeyond;
    if (!tail.supported) {
        // Highest rank with kMinBeyond samples above it.
        const std::size_t index =
            n > kMinBeyond ? n - 1 - kMinBeyond : 0;
        tail.quantile = static_cast<double>(index + 1) /
                        static_cast<double>(n);
        tail.beyond = n - 1 - index;
    }
    tail.value = sortedQuantile(samples, tail.quantile);
    return tail;
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return sortedQuantile(samples, 0.5);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

double
Outcomes::failFraction() const
{
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
}

Outcomes &
Outcomes::operator+=(const Outcomes &other)
{
    attempted += other.attempted;
    ok += other.ok;
    rejectedOverload += other.rejectedOverload;
    rejectedQuota += other.rejectedQuota;
    rejectedOther += other.rejectedOther;
    timedOut += other.timedOut;
    wrong += other.wrong;
    partial += other.partial;
    cancelled += other.cancelled;
    return *this;
}

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Admission: return "admission";
      case Stage::QueueWait: return "queue_wait";
      case Stage::Compile: return "compile";
      case Stage::Execute: return "execute";
      case Stage::Range: return "range";
      case Stage::Probe: return "probe";
      case Stage::Gather: return "gather";
      case Stage::ConfirmDtw: return "confirm_dtw";
      case Stage::ConfirmEuclid: return "confirm_euclid";
      case Stage::Merge: return "merge";
      case Stage::Ingest: return "ingest";
      case Stage::Hash: return "hash";
      case Stage::Schedule: return "schedule";
      case Stage::Repair: return "repair";
      case Stage::EventLoop: return "event_loop";
      case Stage::TraceExport: return "trace_export";
    }
    return "unknown";
}

SpanLog::SpanLog(bool enabled) : on(enabled), epoch(Clock::now()) {}

void
SpanLog::add(Stage stage, std::uint64_t request, Clock::time_point start,
             Clock::time_point end)
{
    if (!on)
        return;
    const auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch)
            .count();
    };
    spans.push_back({stage, request, ns(start), ns(end)});
}

void
SpanLog::addDuration(Stage stage, std::uint64_t request, double ms)
{
    if (!on)
        return;
    const Clock::time_point end = Clock::now();
    add(stage, request,
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(ms)),
        end);
}

std::vector<double>
SpanLog::durationsMs(Stage stage) const
{
    std::vector<double> out;
    for (const Span &span : spans)
        if (span.stage == stage)
            out.push_back(static_cast<double>(span.endNs - span.startNs) *
                          1e-6);
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "stage\trequest\tstart_ns\tend_ns\n";
    for (const Span &span : spans)
        out << stageName(span.stage) << '\t' << span.request << '\t'
            << span.startNs << '\t' << span.endNs << '\n';
    return static_cast<bool>(out);
}

void
Report::add(const std::string &name, const std::string &unit,
            double value)
{
    if (!validMetricName(name))
        throw std::logic_error("invalid metric name: " + name);
    if (get(name))
        throw std::logic_error("duplicate metric: " + name);
    if (!std::isfinite(value))
        throw std::logic_error("non-finite metric: " + name);
    all.push_back({name, unit, value});
}

std::optional<double>
Report::get(const std::string &name) const
{
    for (const Metric &metric : all)
        if (metric.name == name)
            return metric.value;
    return std::nullopt;
}

std::string
Report::resultJson(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : all) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.value);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + metric.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

void
Digest::add(std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (word >> (8 * byte)) & 0xff;
        h *= 0x0000'0100'0000'01b3ULL;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

} // namespace e2e
