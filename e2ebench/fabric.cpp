/**
 * @file
 * The fabric phase: the Section 6 flow mix (seizure detection,
 * all-to-all hash similarity, spike sorting; priorities 1/3/1) is
 * deployed through ScaloSystem::deploy and executed through SystemSim
 * under a seeded fault plan whose crash targets are nodes that send
 * in the networked flow (only senders are heartbeated). Every
 * repetition must reproduce the same schedule and the same result
 * digest, parallel runs must equal the serial engine on a prefix,
 * and each run must perform at least one repair.
 */

#include <algorithm>
#include <memory>

#include "scalo/core/system.hpp"
#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/runtime/system_sim.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

using namespace scalo;
using namespace scalo::units::literals;

/** Index of the networked (heartbeated) flow in mixedFlows(). */
constexpr std::size_t kNetworkedFlow = 1;
/** Prefix length of the serial-vs-parallel parity run. */
constexpr double kParityMs = 200.0;
/** Repetition cap of the deploy + simulate loop. */
constexpr std::size_t kMaxReps = 25;
/** Prefix length of the traced run on untraced workloads. */
constexpr double kTracePrefixMs = 100.0;

std::vector<sched::FlowSpec>
mixedFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

core::ScaloConfig
systemConfig(const FabricSpec &spec, std::uint64_t seed)
{
    core::ScaloConfig config;
    config.nodes = spec.nodes;
    config.clusters = spec.clusters;
    config.seed = streamKey(seed, 0xfab);
    return config;
}

/** The scheduler view ScaloSystem deploys with (system.cpp). */
sched::SystemConfig
schedulerConfig(const core::ScaloConfig &config)
{
    sched::SystemConfig sys;
    sys.nodes = config.nodes;
    sys.powerCap = config.powerCap;
    sys.radio = &net::radioSpec(config.radio);
    sys.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (config.clusters > 1)
        sys.clusters =
            net::ClusterPlan::balanced(config.nodes, config.clusters);
    return sys;
}

/**
 * Seeded faults over nodes that send in the networked flow. Targets
 * are checked against the node and cluster counts here, before
 * simulate: FaultPlan::validate's contracts compile out of optimised
 * builds, and an out-of-range crash target then corrupts the run.
 */
sim::FaultPlan
faultPlan(const FabricSpec &spec, const sched::Schedule &schedule,
          std::uint64_t seed, Context &ctx)
{
    std::vector<std::uint32_t> senders;
    const std::vector<double> &electrodes =
        schedule.flows.at(kNetworkedFlow).electrodesPerNode;
    for (std::size_t n = 0; n < electrodes.size(); ++n)
        if (electrodes[n] > 1e-6)
            senders.push_back(static_cast<std::uint32_t>(n));
    sim::FaultPlan plan;
    if (senders.size() < 2) {
        ctx.fail("fabric: fewer than two senders to crash");
        return plan;
    }
    Rng rng(streamKey(seed, 0xfa17));
    const double d = spec.durationMs;
    const auto at = [&](double share) {
        return units::Millis(d * (share + 0.05 * rng.uniform()));
    };
    const std::uint32_t rebooting = senders[rng.below(senders.size())];
    std::uint32_t permanent = rebooting;
    while (permanent == rebooting)
        permanent = senders[rng.below(senders.size())];
    plan.crashes.push_back({rebooting, at(0.15), at(0.55)});
    plan.crashes.push_back({permanent, at(0.30)});
    if (spec.clusters > 1) {
        const auto cluster = static_cast<std::uint32_t>(
            rng.below(spec.clusters));
        plan.partitions.push_back({cluster, at(0.40), at(0.65)});
    }
    if (spec.clusterFaults) {
        const auto cluster = static_cast<std::uint32_t>(
            rng.below(spec.clusters));
        plan.relayCrashes.push_back({cluster, at(0.50)});
        plan.backboneBerSpikes.push_back({at(0.70), at(0.85), 1e-4});
    }

    for (const sim::NodeCrashFault &crash : plan.crashes)
        if (crash.node >= spec.nodes)
            ctx.fail("fabric: crash target out of range");
    for (const sim::ClusterPartitionFault &cut : plan.partitions)
        if (cut.cluster >= spec.clusters)
            ctx.fail("fabric: partition target out of range");
    for (const sim::RelayCrashFault &crash : plan.relayCrashes)
        if (crash.cluster >= spec.clusters)
            ctx.fail("fabric: relay-crash target out of range");
    plan.validate(spec.nodes, spec.clusters);
    return plan;
}

std::uint64_t
scheduleDigest(const sched::Schedule &schedule)
{
    Digest digest;
    digest.add(static_cast<std::uint64_t>(schedule.feasible));
    digest.add(schedule.weightedThroughput.count());
    for (const sched::FlowAllocation &flow : schedule.flows)
        for (double e : flow.electrodesPerNode)
            digest.add(e);
    return digest.value();
}

std::uint64_t
resultDigest(const sim::SystemSimResult &result)
{
    Digest digest;
    digest.add(static_cast<std::uint64_t>(result.eventsExecuted));
    for (const sim::FlowSimStats &flow : result.flows) {
        digest.add(static_cast<std::uint64_t>(flow.windowsSubmitted));
        digest.add(static_cast<std::uint64_t>(flow.windowsCompleted));
        digest.add(static_cast<std::uint64_t>(flow.windowsDropped));
        digest.add(flow.packetsSent);
        digest.add(flow.packetsCorrupted);
        digest.add(flow.retransmissions);
        digest.add(flow.packetsLost);
        digest.add(flow.relayForwards);
    }
    digest.add(static_cast<std::uint64_t>(result.reschedules.size()));
    digest.add(static_cast<std::uint64_t>(result.restitches.size()));
    digest.add(static_cast<std::uint64_t>(result.partitions.size()));
    digest.add(result.exchangeTimeouts);
    digest.add(result.relayForwardsDropped);
    return digest.value();
}

struct SimRun
{
    sim::SystemSimResult result;
    /** SystemSim construction + run(). */
    double runMs = 0.0;
    /** Trace::toChromeJson() (0 when untraced). */
    double exportMs = 0.0;
    double traceMb = 0.0;
    std::size_t traceEvents = 0;
};

SimRun
simulate(const core::ScaloConfig &config,
         const std::vector<sched::FlowSpec> &flows,
         const sched::Schedule &schedule, const sim::FaultPlan &plan,
         double duration_ms, bool traced, bool parallel,
         std::size_t threads)
{
    sim::SystemSimConfig sim_config;
    sim_config.system = schedulerConfig(config);
    sim_config.flows = flows;
    sim_config.schedule = schedule;
    sim_config.duration = units::Millis(duration_ms);
    sim_config.seed = config.seed;
    sim_config.recordTrace = traced;
    sim_config.faults = plan;
    sim_config.priorities = kPriorities;
    sim_config.parallel = parallel;
    sim_config.threads = threads;

    SimRun run;
    const Clock::time_point t0 = Clock::now();
    sim::SystemSim system_sim(std::move(sim_config));
    run.result = system_sim.run();
    const Clock::time_point t1 = Clock::now();
    run.runMs = msBetween(t0, t1);
    if (traced) {
        const std::string json = system_sim.trace().toChromeJson();
        run.exportMs = msSince(t1);
        run.traceMb = static_cast<double>(json.size()) / 1e6;
        run.traceEvents = system_sim.trace().size();
    }
    return run;
}

double
completedFraction(const sim::SystemSimResult &result)
{
    double submitted = 0.0;
    double completed = 0.0;
    for (const sim::FlowSimStats &flow : result.flows) {
        submitted += static_cast<double>(flow.windowsSubmitted);
        completed += static_cast<double>(flow.windowsCompleted);
    }
    return submitted > 0.0 ? completed / submitted : 0.0;
}

/**
 * Replay every repair the run reported through the public scheduler
 * entry the runtime used, with the event's dead/unreachable sets.
 */
void
replayRepairs(const core::ScaloConfig &config,
              const std::vector<sched::FlowSpec> &flows,
              const sched::Schedule &boot,
              const sim::SystemSimResult &result, Context &ctx,
              std::vector<double> &repair_ms)
{
    const sched::Scheduler scheduler(schedulerConfig(config));
    const net::ClusterPlan plan = scheduler.plan();
    std::uint64_t index = 0;
    for (const sim::RescheduleEvent &event : result.reschedules) {
        const Clock::time_point t0 = Clock::now();
        if (plan.clusterCount() <= 1) {
            scheduler.reschedule(flows, kPriorities, boot,
                                 event.deadNodes);
        } else {
            const std::size_t cluster =
                !event.resolvedClusters.empty()
                    ? event.resolvedClusters.front()
                : !event.deadNodes.empty()
                    ? plan.clusterOf(event.deadNodes.front())
                    : 0;
            scheduler.rescheduleCluster(flows, kPriorities, boot,
                                        event.deadNodes, cluster);
        }
        const Clock::time_point t1 = Clock::now();
        ctx.spans.add(Stage::Repair, index++, t0, t1);
        repair_ms.push_back(msBetween(t0, t1));
    }
    for (const sim::RestitchEvent &event : result.restitches) {
        const Clock::time_point t0 = Clock::now();
        scheduler.restitchBackbone(flows, kPriorities, boot,
                                   event.deadNodes,
                                   event.unreachableClusters);
        const Clock::time_point t1 = Clock::now();
        ctx.spans.add(Stage::Repair, index++, t0, t1);
        repair_ms.push_back(msBetween(t0, t1));
    }
}

} // namespace

struct FabricPhase::State
{
    FabricSpec spec;
    Context &ctx;
    std::vector<sched::FlowSpec> flows = mixedFlows();
    core::ScaloConfig config;
    bool parallel = false;
    std::size_t threads = 1;

    std::vector<double> setup_ms;
    std::vector<double> deploy_ms;
    std::vector<double> sim_ms;
    std::vector<SimRun> runs;
    sched::Schedule boot;
    sim::FaultPlan plan;
    std::uint64_t schedule_digest = 0;
    std::uint64_t result_digest = 0;
    double deploy_total_ms = 0.0;
    double sim_total_ms = 0.0;
    /** A deploy or fault-plan check failed: nothing more to run. */
    bool broken = false;

    State(const FabricSpec &spec, Context &ctx)
        : spec(spec), ctx(ctx), config(systemConfig(spec, ctx.seed)),
          parallel(spec.parallel && spec.clusters > 1),
          // The simulating thread helps its pool, so budget - 1
          // workers.
          threads(ctx.threadBudget > 1 ? ctx.threadBudget - 1 : 1)
    {
    }

    void deploy();
    void simulateOnce();
};

void
FabricPhase::State::deploy()
{
    Clock::time_point t0 = Clock::now();
    const core::ScaloSystem system(config);
    setup_ms.push_back(msSince(t0));

    t0 = Clock::now();
    const sched::Schedule schedule = system.deploy(flows, kPriorities);
    const Clock::time_point t1 = Clock::now();
    ctx.spans.add(Stage::Schedule, deploy_ms.size(), t0, t1);
    deploy_ms.push_back(msBetween(t0, t1));
    deploy_total_ms += deploy_ms.back();
    if (!schedule.feasible) {
        ctx.fail("fabric: infeasible schedule: " + schedule.reason);
        broken = true;
        return;
    }
    if (deploy_ms.size() == 1) {
        boot = schedule;
        schedule_digest = scheduleDigest(schedule);
        const std::size_t failures = ctx.failures.size();
        plan = faultPlan(spec, schedule, ctx.seed, ctx);
        broken = ctx.failures.size() != failures;
    } else if (scheduleDigest(schedule) != schedule_digest) {
        ctx.fail("fabric: deploy is not deterministic");
    }
}

void
FabricPhase::State::simulateOnce()
{
    const std::size_t rep = runs.size();
    SimRun run = simulate(config, flows, boot, plan, spec.durationMs,
                          spec.traced, parallel, threads);
    ctx.spans.addDuration(Stage::EventLoop, rep, run.runMs);
    if (spec.traced)
        ctx.spans.addDuration(Stage::TraceExport, rep, run.exportMs);
    sim_ms.push_back(run.runMs + run.exportMs);
    sim_total_ms += sim_ms.back();
    const std::uint64_t digest = resultDigest(run.result);
    if (rep == 0)
        result_digest = digest;
    else if (digest != result_digest)
        ctx.fail("fabric: simulation is not deterministic");
    runs.push_back(std::move(run));
}

FabricPhase::FabricPhase(const FabricSpec &spec, Context &ctx)
    : state(std::make_unique<State>(spec, ctx))
{
}

FabricPhase::~FabricPhase() = default;

void
FabricPhase::round(std::size_t k)
{
    State &st = *state;
    // Every round deploys and simulates at least once, then each
    // keeps going until it has used its cumulative share of half the
    // phase budget.
    const double target_ms = st.spec.share * st.ctx.seconds * 1e3 /
                             2.0 * static_cast<double>(k + 1) /
                             static_cast<double>(kRounds);
    bool first = true;
    while (!st.broken && st.deploy_ms.size() < kMaxReps &&
           st.runs.size() < kMaxReps) {
        const bool want_deploy = first || st.deploy_total_ms < target_ms;
        const bool want_sim = first || st.sim_total_ms < target_ms;
        if (!want_deploy && !want_sim)
            break;
        first = false;
        if (want_deploy)
            st.deploy();
        if (want_sim && !st.broken)
            st.simulateOnce();
    }
}

FabricTotals
FabricPhase::finish()
{
    State &st = *state;
    Context &ctx = st.ctx;
    const FabricSpec &spec = st.spec;
    const std::vector<sched::FlowSpec> &flows = st.flows;
    const core::ScaloConfig &config = st.config;
    const bool parallel = st.parallel;
    const std::size_t threads = st.threads;
    const sched::Schedule &boot = st.boot;
    const sim::FaultPlan &plan = st.plan;
    const std::vector<SimRun> &runs = st.runs;
    const std::vector<double> &deploy_ms = st.deploy_ms;
    const std::vector<double> &sim_ms = st.sim_ms;
    const std::size_t reps = runs.size();

    FabricTotals totals;
    totals.setupS = median(st.setup_ms) / 1e3;
    totals.reps = reps;
    if (st.broken || runs.empty())
        return totals;
    const sim::SystemSimResult &result = runs.front().result;
    const std::size_t repairs =
        result.reschedules.size() + result.restitches.size();
    if (repairs == 0)
        ctx.fail("fabric: the fault plan caused no repair");

    if (parallel) {
        const std::uint64_t serial = resultDigest(
            simulate(config, flows, boot, plan, kParityMs, false, false,
                     1)
                .result);
        const std::uint64_t par = resultDigest(
            simulate(config, flows, boot, plan, kParityMs, false, true,
                     threads)
                .result);
        if (serial != par)
            ctx.fail("fabric: parallel result differs from serial");
    }

    ctx.note("fabric",
             std::to_string(spec.nodes) + " nodes / " +
                 std::to_string(spec.clusters) + " clusters, " +
                 std::to_string(plan.size()) + " faults, " +
                 std::to_string(result.reschedules.size()) +
                 " reschedules, " +
                 std::to_string(result.restitches.size()) +
                 " restitches, " + std::to_string(result.eventsExecuted) +
                 " events; " + std::to_string(deploy_ms.size()) +
                 " deploys, " + std::to_string(reps) + " simulations");

    if (!ctx.trace) {
        ctx.report.add("deploy_s", "s", median(deploy_ms) / 1e3);
        ctx.report.add("sim_s", "s", median(sim_ms) / 1e3);
        ctx.report.add("deploy_mbps", "Mbps",
                       boot.weightedThroughput.count());
        ctx.report.add("sim_completed_frac", "fraction",
                       completedFraction(result));
        return totals;
    }

    std::vector<double> repair_ms;
    replayRepairs(config, flows, boot, result, ctx, repair_ms);
    std::size_t via_ilp = 0;
    for (const sim::RescheduleEvent &event : result.reschedules)
        via_ilp += event.viaIlp ? 1 : 0;
    for (const sim::RestitchEvent &event : result.restitches)
        via_ilp += event.viaIlp ? 1 : 0;

    std::vector<double> run_ms;
    for (const SimRun &run : runs)
        run_ms.push_back(run.runMs);
    // The other engine, recording exactly as the repetitions did.
    const double other_ms =
        simulate(config, flows, boot, plan, spec.durationMs, spec.traced,
                 !parallel, threads)
            .runMs;
    const double serial_ms = parallel ? other_ms : median(run_ms);
    const double parallel_ms = parallel ? median(run_ms) : other_ms;

    const SimRun traced = spec.traced
                              ? runs.front()
                              : simulate(config, flows, boot, plan,
                                         kTracePrefixMs, true, parallel,
                                         threads);
    if (!spec.traced)
        ctx.spans.addDuration(Stage::TraceExport, reps, traced.exportMs);

    std::uint64_t retransmissions = 0;
    for (const sim::FlowSimStats &flow : result.flows)
        retransmissions += flow.retransmissions;

    Report &out = ctx.report;
    out.add("sched.repairs", "count", static_cast<double>(repairs));
    out.add("sched.repair_ilp_frac", "fraction",
            repairs ? static_cast<double>(via_ilp) /
                          static_cast<double>(repairs)
                    : 0.0);
    out.add("sched.repair_ms.p50", "ms", median(repair_ms));
    out.add("sched.repair_ms.max", "ms",
            repair_ms.empty()
                ? 0.0
                : *std::max_element(repair_ms.begin(), repair_ms.end()));
    out.add("sim.events", "count",
            static_cast<double>(result.eventsExecuted));
    out.add("sim.events_per_s", "1/s",
            static_cast<double>(result.eventsExecuted) /
                (median(run_ms) / 1e3));
    out.add("sim.parallel_speedup", "ratio", serial_ms / parallel_ms);
    out.add("sim.exchange_timeouts", "count",
            static_cast<double>(result.exchangeTimeouts));
    out.add("sim.retransmissions", "count",
            static_cast<double>(retransmissions));
    out.add("sim.packets_lost", "count",
            static_cast<double>(result.packetsLost));
    out.add("sim.relay_forwards_dropped", "count",
            static_cast<double>(result.relayForwardsDropped));
    out.add("sim.trace.export_s", "s", traced.exportMs / 1e3);
    out.add("sim.trace.mb", "MB", traced.traceMb);
    out.add("sim.trace.events", "count",
            static_cast<double>(traced.traceEvents));
    return totals;
}

} // namespace e2e
