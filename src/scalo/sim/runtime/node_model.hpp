/**
 * @file
 * The node-level actor of the simulation runtime: a `NodeModel` owns
 * the GALS pipelines one implant runs (Figure 2b) and executes windows
 * through their PE stages as discrete events on a shared
 * `sim::Simulator`. Each stage is a server with its Table 1 service
 * time; because every PE sits in its own clock domain, stages overlap
 * across consecutive windows, and a stage that cannot keep up with the
 * window cadence grows a backlog — exactly the behaviour the ILP's
 * static sustainability analysis claims never happens for a feasible
 * schedule (Section 3.5), which `sim::SystemSim` cross-validates.
 *
 * Every stage entry/exit, completion, and drop is recorded into an
 * optional `sim::Trace`; per-flow accounting (latencies, busy time,
 * completions) accumulates on the model for `SystemSim` (and the
 * single-pipeline tests) to summarise.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scalo/hw/fabric.hpp"
#include "scalo/sim/event_queue.hpp"
#include "scalo/sim/runtime/trace.hpp"

namespace scalo::sim {

/** Accumulated per-flow execution state of one node. */
struct FlowProgress
{
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t dropped = 0;
    /** End-to-end latency of the last completed window (µs). */
    std::uint64_t lastLatencyUs = 0;
    /** Worst completed-window latency (µs). */
    std::uint64_t maxLatencyUs = 0;
    /** Sum over completed windows (µs), for means. */
    std::uint64_t latencySumUs = 0;

    units::Millis
    meanLatency() const
    {
        if (!completed)
            return units::Millis{0.0};
        return units::Micros{static_cast<double>(latencySumUs) /
                             static_cast<double>(completed)};
    }
};

/** One implant as an actor on the discrete-event engine. */
class NodeModel
{
  public:
    /** Fires when a window leaves its flow's last stage. */
    using Completion =
        std::function<void(std::size_t flow, std::uint64_t windowId)>;

    /**
     * @param simulator shared event engine (must outlive the model)
     * @param node      implant id (trace "pid")
     * @param trace     optional recorder; null skips tracing
     */
    NodeModel(Simulator &simulator, std::uint32_t node,
              Trace *trace = nullptr);

    /**
     * Register a pipeline the node runs at @p window cadence.
     * @return flow index for the submit/progress calls
     */
    std::size_t addPipeline(const hw::Pipeline &pipeline,
                            units::Millis window);

    /** Set the completion hook of one flow. */
    void onWindowDone(std::size_t flow, Completion hook);

    /**
     * Abandon windows still waiting for the first stage after
     * @p backlog (0, the default, never drops: an oversubscribed
     * stage's backlog grows without bound).
     */
    void setDropBacklog(std::size_t flow, units::Millis backlog);

    /** Submit one window arriving at absolute time @p at. */
    void submitWindow(std::size_t flow, std::uint64_t window_id,
                      units::Micros at);

    /**
     * Submit @p count windows at the flow cadence, the first at
     * @p start.
     */
    void streamWindows(std::size_t flow, std::size_t count,
                       units::Micros start = units::Micros{0.0});

    const FlowProgress &progress(std::size_t flow) const;
    const hw::Pipeline &pipeline(std::size_t flow) const;
    std::size_t flowCount() const { return flows.size(); }
    std::uint32_t node() const { return nodeId; }

    /**
     * Crash the node: every pending stage-continuation event is
     * cancelled on the simulator (never executed against the dead
     * model), in-flight windows are dropped (traced as WindowDrop),
     * and windows arriving while halted are dropped on arrival.
     * Stage servers are reset so a later resume() starts cold.
     */
    void halt();

    /** Reboot a halted node; new arrivals execute normally again. */
    void resume();

    bool halted() const { return isHalted; }

    /**
     * Thermal throttle: scale every stage's service time by
     * @p factor (>= 1; 1 restores full speed). Applies to stages
     * entered from now on.
     */
    void setThrottle(double factor);
    double throttle() const { return throttleFactor; }

    /** Simulator owner tag of this node's cancellable events. */
    Simulator::Owner
    eventOwner() const
    {
        return nodeId + 1;
    }

    /** Per-stage busy time accumulated so far (µs). */
    std::vector<double> stageBusyUs(std::size_t flow) const;

    /**
     * Busy-time energy of a flow: each stage's Table 1 power at its
     * electrode count, integrated over the time the stage was serving
     * (the Figure 7 pipeline energy model).
     */
    units::Millijoules stageEnergy(std::size_t flow) const;

    /**
     * Whether every stage's service time fits the window cadence (the
     * analytic sustainability criterion the runtime cross-validates).
     */
    bool analyticallySustainable(std::size_t flow) const;

    /** Trace lane of one stage (flow-local; export "tid"). */
    static std::uint32_t
    stageLane(std::size_t flow, std::size_t stage)
    {
        return static_cast<std::uint32_t>(flow * kLanesPerFlow +
                                          stage + 1);
    }

    /** Lanes reserved per flow (stage lanes + the completion lane). */
    static constexpr std::size_t kLanesPerFlow = 64;

  private:
    struct StageState
    {
        std::uint64_t serviceUs = 0;
        std::uint64_t freeAtUs = 0;
        double busyUs = 0.0;
    };
    struct FlowState
    {
        hw::Pipeline pipeline;
        std::uint64_t windowUs = 0;
        std::uint64_t dropBacklogUs = 0; ///< 0 = never drop
        std::vector<StageState> stages;
        /** Windows inside the pipeline right now (small). */
        std::vector<std::uint64_t> inFlight;
        FlowProgress progress;
        Completion done;
    };

    void enterStage(std::size_t flow, std::size_t stage,
                    std::uint64_t window_id,
                    std::uint64_t arrival_us);

    /** Effective (throttled) service time of one stage. */
    std::uint64_t serviceTicks(const StageState &stage) const;

    Simulator *simulator;
    Trace *trace;
    std::uint32_t nodeId;
    bool isHalted = false;
    double throttleFactor = 1.0;
    std::vector<FlowState> flows;
};

} // namespace scalo::sim
