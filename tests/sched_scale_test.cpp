/**
 * @file
 * Scale-out tests of the decomposed scheduler: per-cluster sub-ILPs
 * plus greedy backbone stitching behind the flat Scheduler interface.
 * Covers feasibility at 64 nodes, bit-identity with the monolithic
 * solve below the decomposition threshold, the bounded optimality gap
 * of the decomposition, incremental rescheduling at 256 nodes, and
 * the greedy repair path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"

namespace scalo::sched {
namespace {

using namespace units::literals;

std::vector<FlowSpec>
mixedFlows()
{
    return {seizureDetectionFlow(),
            hashSimilarityFlow(net::Pattern::AllToAll),
            spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

SystemConfig
clusteredConfig(std::size_t nodes, std::size_t clusters)
{
    SystemConfig config;
    config.nodes = nodes;
    config.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        config.clusters = net::ClusterPlan::balanced(nodes, clusters);
    return config;
}

/** Max nodePower entry, 0 when empty. */
double
maxPowerMw(const Schedule &schedule)
{
    double max = 0.0;
    for (const units::Milliwatts p : schedule.nodePower)
        max = std::max(max, p.count());
    return max;
}

/** Every field of two schedules compares equal, doubles bit for bit. */
void
expectBitIdentical(const Schedule &a, const Schedule &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.reason, b.reason);
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].electrodesPerNode,
                  b.flows[f].electrodesPerNode);
        EXPECT_EQ(a.flows[f].totalElectrodes,
                  b.flows[f].totalElectrodes);
        EXPECT_EQ(a.flows[f].throughput.count(),
                  b.flows[f].throughput.count());
    }
    ASSERT_EQ(a.nodePower.size(), b.nodePower.size());
    for (std::size_t n = 0; n < a.nodePower.size(); ++n)
        EXPECT_EQ(a.nodePower[n].count(), b.nodePower[n].count())
            << "node " << n;
    EXPECT_EQ(a.totalThroughput.count(), b.totalThroughput.count());
    EXPECT_EQ(a.weightedThroughput.count(),
              b.weightedThroughput.count());
}

TEST(SchedScale, Decomposed64Feasible)
{
    const Scheduler scheduler(clusteredConfig(64, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const Schedule schedule =
        scheduler.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(schedule.feasible) << schedule.reason;

    ASSERT_EQ(schedule.flows.size(), 3u);
    for (const FlowAllocation &alloc : schedule.flows) {
        ASSERT_EQ(alloc.electrodesPerNode.size(), 64u);
        EXPECT_GT(alloc.totalElectrodes, 0.0) << alloc.flow;
        for (const double e : alloc.electrodesPerNode) {
            EXPECT_GE(e, 0.0);
            EXPECT_LE(e, constants::kElectrodesPerNode + 1e-6);
        }
    }
    // The per-node power cap binds cluster-locally too.
    ASSERT_EQ(schedule.nodePower.size(), 64u);
    EXPECT_LE(maxPowerMw(schedule),
              constants::kPowerCap.count() + 1e-6);
    EXPECT_GT(schedule.totalThroughput.count(), 0.0);
}

TEST(SchedScale, MonolithicBelowThresholdIsBitIdenticalToFlat)
{
    // 16 nodes sits below kMonolithicNodeThreshold, so an explicit
    // one-cluster plan and a 4-cluster plan must both keep the dense
    // solve and reproduce the flat scheduler bit for bit: schedule(),
    // reschedule() and greedyRepair() alike.
    static_assert(16 <= kMonolithicNodeThreshold);
    SystemConfig one_cluster = clusteredConfig(16, 1);
    one_cluster.clusters = net::ClusterPlan::balanced(16, 1);
    const Scheduler flat(clusteredConfig(16, 1));
    const Scheduler explicit_flat(one_cluster);
    const Scheduler clustered(clusteredConfig(16, 4));
    ASSERT_EQ(clustered.plan().clusterCount(), 4u);

    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule reference = flat.schedule(flows, kPriorities);
    ASSERT_TRUE(reference.feasible);
    for (const Scheduler *scheduler : {&explicit_flat, &clustered}) {
        ASSERT_FALSE(scheduler->decomposed());
        const Schedule original =
            scheduler->schedule(flows, kPriorities);
        expectBitIdentical(original, reference);
        // Losing node 0 hands its broadcaster/aggregator role on.
        for (const std::vector<std::size_t> &dead :
             {std::vector<std::size_t>{1},
              std::vector<std::size_t>{0}}) {
            const RescheduleResult a = scheduler->reschedule(
                flows, kPriorities, original, dead);
            const RescheduleResult b =
                flat.reschedule(flows, kPriorities, reference, dead);
            EXPECT_EQ(a.viaIlp, b.viaIlp);
            expectBitIdentical(a.schedule, b.schedule);
            expectBitIdentical(
                scheduler->greedyRepair(flows, kPriorities, original,
                                        dead),
                flat.greedyRepair(flows, kPriorities, reference,
                                  dead));
        }
    }
}

TEST(SchedScale, DecompositionGapIsBounded)
{
    // The decomposed solve trades optimality for cluster-sized
    // sub-problems; the stitched schedule must stay within a modest
    // factor of the monolithic optimum (and never beat it, since the
    // monolithic solve sees the whole feasible region).
    const Scheduler scheduler(clusteredConfig(64, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule decomposed =
        scheduler.scheduleDecomposed(flows, kPriorities);
    const Schedule monolithic =
        scheduler.scheduleMonolithic(flows, kPriorities);
    ASSERT_TRUE(decomposed.feasible) << decomposed.reason;
    ASSERT_TRUE(monolithic.feasible) << monolithic.reason;

    const double dec = decomposed.weightedThroughput.count();
    const double mono = monolithic.weightedThroughput.count();
    ASSERT_GT(mono, 0.0);
    EXPECT_LE(dec, mono * (1.0 + 1e-6));
    EXPECT_GE(dec, 0.60 * mono)
        << "decomposition gap above 40%: " << dec << " vs " << mono;
}

TEST(SchedScale, Reschedule256TouchesOnlyAffectedClusters)
{
    // 256 nodes in 16 clusters of 16; kill two nodes of cluster 3
    // (nodes 48..63). The incremental path must re-solve only that
    // cluster and keep every other column bit-identical.
    const Scheduler scheduler(clusteredConfig(256, 16));
    ASSERT_TRUE(scheduler.decomposed());
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible) << original.reason;

    const std::vector<std::size_t> dead{49, 55};
    const RescheduleResult result =
        scheduler.reschedule(flows, kPriorities, original, dead);
    ASSERT_TRUE(result.schedule.feasible);
    EXPECT_EQ(result.resolvedClusters,
              (std::vector<std::size_t>{3}));
    EXPECT_EQ(result.deadNodes, dead);

    for (const FlowAllocation &alloc : result.schedule.flows)
        for (const std::size_t n : dead)
            EXPECT_EQ(alloc.electrodesPerNode[n], 0.0);

    // Columns outside cluster 3 are untouched.
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t n = 0; n < 256; ++n) {
            if (n >= 48 && n < 64)
                continue;
            EXPECT_EQ(result.schedule.flows[f].electrodesPerNode[n],
                      original.flows[f].electrodesPerNode[n])
                << "flow " << f << " node " << n;
        }
    EXPECT_LE(maxPowerMw(result.schedule),
              constants::kPowerCap.count() + 1e-6);
    EXPECT_LE(result.throughputAfter.count(),
              result.throughputBefore.count() + 1e-9);
}

TEST(SchedScale, RescheduleClusterMatchesFullReschedule)
{
    // rescheduleCluster (the simulator's concurrent entry point)
    // must agree with reschedule() on the repaired columns of the
    // affected cluster.
    const Scheduler scheduler(clusteredConfig(64, 8));
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::size_t> dead{18};
    const std::size_t cluster = scheduler.plan().clusterOf(18);
    const RescheduleResult via_cluster =
        scheduler.rescheduleCluster(flows, kPriorities, original,
                                    dead, cluster);
    ASSERT_TRUE(via_cluster.schedule.feasible);
    EXPECT_EQ(via_cluster.resolvedClusters,
              (std::vector<std::size_t>{cluster}));
    for (const FlowAllocation &alloc : via_cluster.schedule.flows)
        EXPECT_EQ(alloc.electrodesPerNode[18], 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t n = 0; n < 64; ++n) {
            if (scheduler.plan().clusterOf(n) == cluster)
                continue;
            EXPECT_EQ(
                via_cluster.schedule.flows[f].electrodesPerNode[n],
                original.flows[f].electrodesPerNode[n]);
        }
}

TEST(SchedScale, RescheduleClusterConcurrentMatchesSerial)
{
    // rescheduleCluster's contract: concurrent calls for distinct
    // clusters are safe. Four threads each re-solve a different
    // cluster of the 64-node fabric (cluster 0 loses node 0, the
    // broadcaster/aggregator and its relay); every result must equal
    // the serial call bit for bit.
    const Scheduler scheduler(clusteredConfig(64, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::size_t> dead{0, 19, 42, 63};
    const auto repair = [&](std::size_t node) {
        return scheduler.rescheduleCluster(
            flows, kPriorities, original, {node},
            scheduler.plan().clusterOf(node));
    };
    std::vector<RescheduleResult> serial;
    for (const std::size_t node : dead)
        serial.push_back(repair(node));
    std::vector<RescheduleResult> concurrent(dead.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < dead.size(); ++i)
        threads.emplace_back(
            [&, i] { concurrent[i] = repair(dead[i]); });
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t i = 0; i < dead.size(); ++i) {
        EXPECT_EQ(concurrent[i].viaIlp, serial[i].viaIlp);
        EXPECT_EQ(concurrent[i].resolvedClusters,
                  serial[i].resolvedClusters);
        expectBitIdentical(concurrent[i].schedule, serial[i].schedule);
    }
}

TEST(SchedScale, GreedyRepairShedsDeadWorkAt64)
{
    const Scheduler scheduler(clusteredConfig(64, 8));
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::size_t> dead{3, 12, 40};
    const Schedule repaired =
        scheduler.greedyRepair(flows, kPriorities, original, dead);
    ASSERT_TRUE(repaired.feasible);
    for (const FlowAllocation &alloc : repaired.flows) {
        for (const std::size_t n : dead)
            EXPECT_EQ(alloc.electrodesPerNode[n], 0.0);
        for (const double e : alloc.electrodesPerNode)
            EXPECT_GE(e, 0.0);
    }
    EXPECT_LE(maxPowerMw(repaired),
              constants::kPowerCap.count() + 1e-6);
}

} // namespace
} // namespace scalo::sched
