/**
 * @file
 * Unit tests for the stimulation back end: charge balance, safety
 * validation, waveform synthesis, power model, and the preset
 * therapy/feedback patterns; plus the GALS pipeline queueing
 * simulator and the TDMA network plan emitted by the scheduler.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "scalo/app/stimulation.hpp"
#include "scalo/sched/netplan.hpp"
#include "scalo/sim/event_queue.hpp"
#include "scalo/sim/runtime/node_model.hpp"

namespace scalo::app {
namespace {

TEST(Stimulation, ChargeArithmetic)
{
    StimPattern pattern;
    pattern.amplitudeUa = 100.0;
    pattern.phaseUs = 200.0;
    EXPECT_DOUBLE_EQ(pattern.chargePerPhaseNc(), 20.0);
    pattern.frequencyHz = 100.0; // 10 ms period, 400 us driving
    EXPECT_NEAR(pattern.dutyCycle(), 0.04, 1e-12);
}

TEST(Stimulation, ValidatesSafetyLimits)
{
    StimulationController controller;
    EXPECT_TRUE(controller.validate(StimPattern{}).empty());

    StimPattern hot;
    hot.amplitudeUa = 500.0;
    hot.phaseUs = 400.0; // 200 nC per phase
    EXPECT_NE(controller.validate(hot).find("charge per phase"),
              std::string::npos);

    StimPattern fast;
    fast.frequencyHz = 1'000.0;
    EXPECT_NE(controller.validate(fast).find("frequency"),
              std::string::npos);

    StimPattern crowded;
    crowded.electrodes.assign(64, 0);
    EXPECT_NE(controller.validate(crowded).find("electrodes"),
              std::string::npos);

    StimPattern overlong;
    overlong.amplitudeUa = 20.0;      // keep charge within limits
    overlong.frequencyHz = 400.0;     // 2.5 ms period
    overlong.phaseUs = 1'000.0;       // 2 x 1 ms + gap > period
    overlong.gapUs = 800.0;
    EXPECT_NE(controller.validate(overlong).find("period"),
              std::string::npos);
}

TEST(Stimulation, WaveformIsChargeBalanced)
{
    StimulationController controller;
    StimPattern pattern;
    const auto waveform =
        controller.pulseWaveform(pattern, 1'000'000.0); // 1 MHz
    const double net = std::accumulate(waveform.begin(),
                                       waveform.end(), 0.0);
    // Cathodic and anodic phases cancel to well under one sample's
    // worth of charge.
    EXPECT_LT(std::abs(net), pattern.amplitudeUa * 2.0);
    // The cathodic phase leads.
    EXPECT_LT(waveform.front(), 0.0);
    // Peak amplitudes are symmetric.
    EXPECT_DOUBLE_EQ(
        *std::min_element(waveform.begin(), waveform.end()),
        -pattern.amplitudeUa);
    EXPECT_DOUBLE_EQ(
        *std::max_element(waveform.begin(), waveform.end()),
        pattern.amplitudeUa);
}

TEST(Stimulation, PowerNearPaperDacFigure)
{
    // Section 5: the DAC consumes ~0.6 mW. A typical arrest pattern
    // lands in that neighbourhood.
    StimulationController controller;
    const auto pattern = seizureArrestPattern({0, 1, 2, 3});
    EXPECT_TRUE(controller.validate(pattern).empty());
    const units::Milliwatts power = controller.power(pattern);
    EXPECT_GT(power.count(), 0.5);
    EXPECT_LT(power.count(), 1.2);
}

TEST(Stimulation, IssueCountsOnlyValidPatterns)
{
    StimulationController controller;
    EXPECT_TRUE(controller.issue(StimPattern{}));
    StimPattern bad;
    bad.amplitudeUa = 1e6;
    EXPECT_FALSE(controller.issue(bad));
    EXPECT_EQ(controller.issuedCount(), 1u);
}

TEST(Stimulation, PresetPatternsAreSafe)
{
    StimulationController controller;
    EXPECT_TRUE(
        controller.validate(seizureArrestPattern({0, 1})).empty());
    for (double intensity : {0.0, 0.5, 1.0}) {
        EXPECT_TRUE(controller
                        .validate(sensoryFeedbackPattern(
                            {2}, intensity))
                        .empty());
    }
    // Feedback intensity modulates amplitude monotonically.
    EXPECT_LT(sensoryFeedbackPattern({0}, 0.1).amplitudeUa,
              sensoryFeedbackPattern({0}, 0.9).amplitudeUa);
}

} // namespace
} // namespace scalo::app

namespace scalo::sim {
namespace {

using namespace units::literals;

// GALS pipeline queueing (Figure 2b / Figure 7) on the node-level
// runtime: one NodeModel streams windows, one every period, through
// one pipeline's PE stages, each a server with its Table 1 latency.

units::Millis
lastLatency(const FlowProgress &progress)
{
    return units::Micros{static_cast<double>(progress.lastLatencyUs)};
}

/** Busy fraction of each stage over @p windows arrivals. */
std::vector<double>
stageUtilization(const NodeModel &node, std::size_t flow,
                 std::size_t windows, units::Millis period)
{
    const double total_us =
        static_cast<double>(windows) * period.in<units::Micros>();
    std::vector<double> busy = node.stageBusyUs(flow);
    for (double &us : busy)
        us /= total_us;
    return busy;
}

TEST(PipelineSim, SustainablePipelineHasFixedLatency)
{
    // FFT(4) + SVM(1.67) + THR(0.06) at a 4 ms cadence: every stage
    // keeps up, so end-to-end latency equals the stage sum.
    hw::Pipeline pipeline("detect",
                          {{hw::PeKind::FFT, 96.0, 1},
                           {hw::PeKind::SVM, 96.0, 1},
                           {hw::PeKind::THR, 96.0, 1}});
    Simulator simulator;
    NodeModel node(simulator, /*node=*/0);
    const std::size_t flow = node.addPipeline(pipeline, 4.0_ms);
    node.streamWindows(flow, 200);
    simulator.run();

    EXPECT_TRUE(node.analyticallySustainable(flow));
    EXPECT_EQ(node.progress(flow).completed, 200u);
    EXPECT_NEAR(lastLatency(node.progress(flow)).count(),
                4.0 + 1.67 + 0.06, 1e-9);
    // The FFT stage is fully busy at this cadence.
    const std::vector<double> utilization =
        stageUtilization(node, flow, 200, 4.0_ms);
    EXPECT_NEAR(utilization[0], 1.0, 0.02);
    EXPECT_LT(utilization[2], 0.05);
    EXPECT_GT(node.stageEnergy(flow).count(), 0.0);
}

TEST(PipelineSim, OversubscribedStageBacklogsForever)
{
    // The same pipeline at a 2 ms cadence: the 4 ms FFT stage cannot
    // keep up and the latency of later windows grows without bound.
    hw::Pipeline pipeline("detect", {{hw::PeKind::FFT, 96.0, 1},
                                     {hw::PeKind::SVM, 96.0, 1}});
    Simulator simulator;
    NodeModel node(simulator, /*node=*/0);
    const std::size_t flow = node.addPipeline(pipeline, 2.0_ms);
    node.streamWindows(flow, 300);
    simulator.run();

    const FlowProgress &progress = node.progress(flow);
    EXPECT_FALSE(node.analyticallySustainable(flow));
    EXPECT_GT(lastLatency(progress), 100.0_ms);
    EXPECT_GT(lastLatency(progress), progress.meanLatency());
}

TEST(PipelineSim, FasterCadenceRaisesUtilizationAndEnergyRate)
{
    hw::Pipeline pipeline("hash", {{hw::PeKind::HCONV, 96.0, 1}});
    struct Run
    {
        double utilization;
        units::Millijoules energy;
    };
    const auto stream = [&](units::Millis period) {
        Simulator simulator;
        NodeModel node(simulator, /*node=*/0);
        const std::size_t flow = node.addPipeline(pipeline, period);
        node.streamWindows(flow, 100);
        simulator.run();
        return Run{stageUtilization(node, flow, 100, period)[0],
                   node.stageEnergy(flow)};
    };
    const Run slow = stream(8.0_ms);
    const Run fast = stream(2.0_ms);
    EXPECT_GT(fast.utilization, slow.utilization);
    // Same work -> same busy energy, independent of cadence.
    EXPECT_NEAR(fast.energy.count(), slow.energy.count(), 1e-9);
}

} // namespace
} // namespace scalo::sim

namespace scalo::sched {
namespace {

TEST(NetworkPlan, SlotsAreOrderedAndSized)
{
    SystemConfig config;
    config.nodes = 4;
    const Scheduler scheduler(config);
    const std::vector<FlowSpec> flows{
        seizureDetectionFlow(),
        hashSimilarityFlow(net::Pattern::AllToAll)};
    const auto schedule = scheduler.schedule(flows, {1.0, 1.0});
    ASSERT_TRUE(schedule.feasible);

    const auto plan = buildNetworkPlan(flows, schedule);
    // Local flows get no slots; the hash flow gets one per node.
    EXPECT_EQ(plan.slots.size(), 4u);
    EXPECT_TRUE(plan.collisionFree());
    for (const auto &slot : plan.slots) {
        EXPECT_EQ(slot.flow, "hash-similarity");
        EXPECT_GT(slot.payloadBytes, 0u);
        EXPECT_GT(slot.end, slot.start);
    }
    // The round respects the flow's exchange budget.
    EXPECT_LE(plan.round, flows[1].network->roundBudget +
                              units::Millis{1e-6});
    // The rendering mentions every sender.
    const auto text = renderPlan(plan);
    EXPECT_NE(text.find("node 0"), std::string::npos);
    EXPECT_NE(text.find("node 3"), std::string::npos);
}

TEST(NetworkPlan, AllToOneSkipsAggregator)
{
    SystemConfig config;
    config.nodes = 5;
    const Scheduler scheduler(config);
    const std::vector<FlowSpec> flows{miSvmFlow()};
    const auto schedule = scheduler.schedule(flows, {1.0});
    ASSERT_TRUE(schedule.feasible);
    const auto plan = buildNetworkPlan(flows, schedule);
    EXPECT_EQ(plan.slots.size(), 4u); // node 0 aggregates
    for (const auto &slot : plan.slots)
        EXPECT_NE(slot.sender, 0u);
}

} // namespace
} // namespace scalo::sched
