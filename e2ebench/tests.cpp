/**
 * @file
 * Tests of the benchmark's own machinery: the percentile rule, the
 * seeded Poisson schedule, failure accounting, and metric names
 * (including every name BENCHMARK.json declares, when run from the
 * repository root).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "common.hpp"

namespace e2e {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, SupportedWhenTenSamplesLieBeyond)
{
    // 1000 samples: p99 is rank 990, ten samples above it.
    const Tail tail = tailPercentile(ramp(1'000), 0.99);
    EXPECT_TRUE(tail.supported);
    EXPECT_EQ(tail.beyond, 10u);
    EXPECT_DOUBLE_EQ(tail.value, 990.0);
    EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
    EXPECT_EQ(tail.samples, 1'000u);
}

TEST(Percentile, FallsBackToHighestSupportedQuantile)
{
    // 500 samples cannot support p99 (5 beyond); the highest
    // supported rank is 490 (ten beyond).
    const Tail tail = tailPercentile(ramp(500), 0.99);
    EXPECT_FALSE(tail.supported);
    EXPECT_EQ(tail.beyond, 10u);
    EXPECT_DOUBLE_EQ(tail.value, 490.0);
    EXPECT_LT(tail.quantile, 0.99);
}

TEST(Percentile, TinyAndEmptySamples)
{
    EXPECT_EQ(tailPercentile({}, 0.99).samples, 0u);
    const Tail tiny = tailPercentile({3.0, 1.0, 2.0}, 0.99);
    EXPECT_FALSE(tiny.supported);
    EXPECT_DOUBLE_EQ(tiny.value, 1.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Poisson, SameSeedSameSchedule)
{
    const std::vector<double> a = poissonSchedule(42, 500.0, 4.0);
    EXPECT_EQ(a, poissonSchedule(42, 500.0, 4.0));
    EXPECT_NE(a, poissonSchedule(43, 500.0, 4.0));
}

TEST(Poisson, ScheduleIsSortedInRangeAndNearTheRate)
{
    const std::vector<double> due = poissonSchedule(7, 1'000.0, 10.0);
    ASSERT_FALSE(due.empty());
    EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
    EXPECT_GT(due.front(), 0.0);
    EXPECT_LT(due.back(), 10.0);
    // 10000 expected arrivals; 5 sigma is 500.
    EXPECT_NEAR(static_cast<double>(due.size()), 10'000.0, 500.0);
    EXPECT_TRUE(poissonSchedule(7, 0.0, 10.0).empty());
}

TEST(Poisson, RngStreamsAreReproducible)
{
    Rng a(9);
    Rng b(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(9);
    for (int i = 0; i < 1'000; ++i) {
        const double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(c.below(7), 7u);
    }
}

TEST(Outcomes, EveryFailureKindCountsAgainstAttempts)
{
    Outcomes outcomes;
    outcomes.attempted = 100;
    outcomes.ok = 93;
    outcomes.rejectedOverload = 1;
    outcomes.rejectedQuota = 1;
    outcomes.rejectedOther = 1;
    outcomes.timedOut = 1;
    outcomes.wrong = 1;
    outcomes.partial = 1;
    outcomes.cancelled = 1;
    EXPECT_EQ(outcomes.failed(), 7u);
    EXPECT_DOUBLE_EQ(outcomes.failFraction(), 0.07);

    Outcomes sum;
    sum += outcomes;
    sum += outcomes;
    EXPECT_EQ(sum.attempted, 200u);
    EXPECT_EQ(sum.failed(), 14u);
    EXPECT_DOUBLE_EQ(Outcomes{}.failFraction(), 0.0);
}

TEST(MetricNames, Validity)
{
    EXPECT_TRUE(validMetricName("serve_p99_ms"));
    EXPECT_TRUE(validMetricName("app.store.range_us.p50"));
    EXPECT_TRUE(validMetricName("fabric-256"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(MetricNames, ReportRejectsBadAndDuplicateNames)
{
    Report report;
    report.add("latency_ms", "ms", 1.5);
    EXPECT_THROW(report.add("latency_ms", "ms", 2.0), std::logic_error);
    EXPECT_THROW(report.add("bad name", "ms", 2.0), std::logic_error);
    EXPECT_THROW(report.add("nan_metric", "ms", std::nan("")),
                 std::logic_error);
    const std::string json = report.resultJson(true, 3, 0);
    EXPECT_EQ(json, "{\"correct\": true, \"attempted\": 3, \"failed\": "
                    "0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, "
                    "\"unit\": \"ms\"}}}");
}

TEST(MetricNames, BenchmarkJsonNamesAreValid)
{
    std::ifstream in("BENCHMARK.json");
    if (!in)
        GTEST_SKIP() << "run from the repository root to check "
                        "BENCHMARK.json";
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    const std::regex name("\"name\":\\s*\"([^\"]*)\"");
    std::size_t names = 0;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), name);
         it != std::sregex_iterator(); ++it, ++names)
        EXPECT_TRUE(validMetricName((*it)[1].str())) << (*it)[1].str();
    EXPECT_GT(names, 10u);
}

} // namespace
} // namespace e2e
