#include "scalo/sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "scalo/hw/nvm.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/net/packet.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::sched {

using namespace units::literals;

std::vector<std::size_t>
senders(net::Pattern pattern, const std::vector<bool> &alive)
{
    std::vector<std::size_t> live;
    live.reserve(alive.size());
    for (std::size_t n = 0; n < alive.size(); ++n)
        if (alive[n])
            live.push_back(n);
    std::vector<std::size_t> out;
    switch (pattern) {
      case net::Pattern::OneToAll:
        if (!live.empty())
            out.push_back(live.front());
        break;
      case net::Pattern::AllToAll:
        out = live;
        break;
      case net::Pattern::AllToOne:
        for (std::size_t i = 1; i < live.size(); ++i)
            out.push_back(live[i]);
        break;
    }
    return out;
}

namespace {

/** TDMA slot guard time (radio turnaround), matching net::TdmaSchedule. */
constexpr units::Millis kGuard = units::Micros{20.0};

/**
 * Linearised wire time for one payload byte: per-packet overhead
 * amortised as a rate factor. (The ILP needs per-byte coefficients,
 * so this is where a time deliberately leaves the unit system as ms.)
 */
units::Millis
wireTimePerByte(const net::RadioSpec &radio)
{
    const double overhead_factor =
        1.0 + static_cast<double>(net::kPacketOverheadBytes) /
                  static_cast<double>(net::kMaxPayloadBytes);
    return overhead_factor * (1.0_B / radio.dataRate);
}

units::Millis
wireFixed(const net::RadioSpec &radio)
{
    return units::Bytes{static_cast<double>(
               net::kPacketOverheadBytes)} /
               radio.dataRate +
           kGuard;
}

/** Exact-compare flows put their comparison work on the receivers. */
bool
receiveSideCompare(const SystemConfig &config, const FlowSpec &flow)
{
    return flow.network && flow.network->exactCompare &&
           config.wirelessNetwork;
}

/** Leakage charged to every live node for @p flows (radio once). */
units::Milliwatts
totalLeak(const SystemConfig &config,
          const std::vector<FlowSpec> &flows)
{
    units::Milliwatts radio_leak{0.0};
    std::size_t networked = 0;
    for (const FlowSpec &flow : flows)
        if (flow.network)
            ++networked;
    if (config.wirelessNetwork && networked > 0)
        radio_leak = config.radio->power;

    units::Milliwatts leak_total{0.0};
    for (const FlowSpec &flow : flows) {
        units::Milliwatts leak = flow.leak;
        if (flow.network) {
            // FlowSpec folds the default radio into its leakage;
            // replace it with the configured radio, charged once.
            leak -= net::defaultRadio().power;
        }
        leak_total += leak;
    }
    return leak_total + radio_leak;
}

/**
 * Per-node power of an allocation: leakage on live nodes plus each
 * flow's linear/quadratic dynamic terms. Exact-compare flows charge
 * the receivers hierarchically: nodes compare windows against their
 * cluster peers only, and each cluster's relay additionally compares
 * the other clusters' backbone aggregates. (This is the point of
 * clustering: all-pairs comparison work turns into per-cluster work
 * plus one relay-side pass; on a flat plan the relay term is zero.)
 * Dead nodes are off and draw nothing.
 */
std::vector<units::Milliwatts>
allocationPowerClustered(const SystemConfig &config,
                         const std::vector<FlowSpec> &flows,
                         const std::vector<FlowAllocation> &allocs,
                         const std::vector<bool> &alive,
                         units::Milliwatts leak_total,
                         const net::ClusterPlan &plan)
{
    std::vector<units::Milliwatts> power(config.nodes,
                                         units::Milliwatts{0.0});
    for (std::size_t n = 0; n < config.nodes; ++n)
        if (alive[n])
            power[n] = leak_total;
    const std::size_t cluster_count = plan.clusterCount();
    std::vector<double> cluster_total(cluster_count, 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        if (!receiveSideCompare(config, flows[f])) {
            for (std::size_t n = 0; n < config.nodes; ++n) {
                if (!alive[n])
                    continue;
                const double e = allocs[f].electrodesPerNode[n];
                power[n] += flows[f].linPerElectrode * e +
                            flows[f].quadPerElectrode2 * e * e;
            }
            continue;
        }
        std::fill(cluster_total.begin(), cluster_total.end(), 0.0);
        double flow_total = 0.0;
        for (std::size_t n = 0; n < config.nodes; ++n) {
            const double e = allocs[f].electrodesPerNode[n];
            cluster_total[plan.clusterOf(n)] += e;
            flow_total += e;
        }
        for (std::size_t n = 0; n < config.nodes; ++n) {
            if (!alive[n])
                continue;
            power[n] +=
                flows[f].linPerElectrode *
                (cluster_total[plan.clusterOf(n)] -
                 allocs[f].electrodesPerNode[n]);
        }
        for (std::size_t c = 0; c < cluster_count; ++c) {
            const std::size_t relay = plan.relay(
                c, [&](std::size_t n) { return alive[n]; });
            if (relay != net::ClusterPlan::kNoRelay)
                power[relay] += flows[f].linPerElectrode *
                                (flow_total - cluster_total[c]);
        }
    }
    return power;
}

/**
 * A flow's roles inside one cluster: its transmitting members in node
 * order, and per member whether it may carry electrodes (any live
 * member, or only the transmitting ones for exact-compare flows).
 * Sender roles are global (the fabric-wide first survivor broadcasts
 * or aggregates); a cluster sees their intersection with its members.
 */
struct ClusterRoles
{
    std::vector<std::size_t> tx;
    std::vector<bool> eligible;
};

ClusterRoles
clusterRoles(const SystemConfig &config, const FlowSpec &flow,
             const std::vector<bool> &alive,
             const net::ClusterPlan &plan, std::size_t cluster)
{
    const std::size_t first = plan.firstOf(cluster);
    const std::size_t size = plan.sizeOf(cluster);
    ClusterRoles roles;
    roles.tx.reserve(size);
    if (flow.network)
        for (const std::size_t n :
             senders(flow.network->pattern, alive))
            if (n >= first && n < first + size)
                roles.tx.push_back(n);
    roles.eligible.assign(size, false);
    if (receiveSideCompare(config, flow)) {
        for (const std::size_t n : roles.tx)
            roles.eligible[n - first] = true;
    } else {
        for (std::size_t i = 0; i < size; ++i)
            roles.eligible[i] = alive[first + i];
    }
    return roles;
}

/**
 * Add tangent cuts approximating q >= e^2 from below (exact at the
 * grid points; the maximizing LP sits on the hull, so the error is
 * bounded by the grid pitch squared over four).
 */
void
addQuadraticCuts(ilp::Model &model, int e_var, int q_var, double e_max)
{
    constexpr int kCuts = 32;
    for (int i = 0; i <= kCuts; ++i) {
        const double e0 =
            e_max * static_cast<double>(i) / static_cast<double>(kCuts);
        // q >= 2 e0 e - e0^2.
        model.addConstraint({{q_var, 1.0}, {e_var, -2.0 * e0}},
                            ilp::Relation::GreaterEq, -e0 * e0);
    }
}

std::vector<bool>
aliveMask(std::size_t nodes, const std::vector<std::size_t> &dead)
{
    std::vector<bool> alive(nodes, true);
    for (const std::size_t n : dead) {
        SCALO_EXPECTS(n < nodes);
        alive[n] = false;
    }
    return alive;
}

units::Milliwatts
maxPower(const std::vector<units::Milliwatts> &power)
{
    units::Milliwatts peak{0.0};
    for (const units::Milliwatts p : power)
        peak = std::max(peak, p);
    return peak;
}

/**
 * Largest electrode increment at a node whose marginal dynamic power
 * a·d + b·((e+d)^2 - e^2) stays within @p headroom mW.
 */
double
powerRoom(double lin, double quad, double e, double headroom)
{
    if (headroom <= 0.0)
        return 0.0;
    if (quad <= 0.0)
        return lin > 0.0 ? headroom / lin
                         : std::numeric_limits<double>::infinity();
    const double slope = lin + 2.0 * quad * e;
    return (std::sqrt(slope * slope + 4.0 * quad * headroom) -
            slope) /
           (2.0 * quad);
}

/** Overwrite @p members' columns of @p to with those of @p from. */
void
copyColumns(const Schedule &from, Schedule &to,
            const std::vector<std::size_t> &members)
{
    for (std::size_t f = 0; f < to.flows.size(); ++f)
        for (const std::size_t n : members)
            to.flows[f].electrodesPerNode[n] =
                from.flows[f].electrodesPerNode[n];
}

/**
 * Cap a re-solved cluster's per-flow totals at the pre-death totals
 * of @p original. A fresh sub-solve does not know how the backbone
 * stitch had scaled the flow fabric-wide; clamping keeps relay
 * payloads monotonically non-increasing, which is what lets a
 * cluster reschedule skip the (fabric-wide) re-stitch.
 */
void
clampClusterToOriginal(const Schedule &original, Schedule &repaired,
                       const std::vector<std::size_t> &members)
{
    for (std::size_t f = 0; f < repaired.flows.size(); ++f) {
        double before = 0.0;
        double after = 0.0;
        for (const std::size_t n : members) {
            before += original.flows[f].electrodesPerNode[n];
            after += repaired.flows[f].electrodesPerNode[n];
        }
        if (after > before + 1e-9 && after > 0.0) {
            const double scale = before / after;
            for (const std::size_t n : members)
                repaired.flows[f].electrodesPerNode[n] *= scale;
        }
    }
}

/** Clusters of @p plan owning any of @p nodes, ascending. */
std::vector<std::size_t>
clustersOf(const net::ClusterPlan &plan,
           const std::vector<std::size_t> &nodes)
{
    std::vector<std::size_t> clusters;
    for (const std::size_t n : nodes)
        clusters.push_back(plan.clusterOf(n));
    std::sort(clusters.begin(), clusters.end());
    clusters.erase(std::unique(clusters.begin(), clusters.end()),
                   clusters.end());
    return clusters;
}

/**
 * Common start of every reschedule entry: the sorted, deduplicated
 * dead set and the before-metrics of @p original.
 */
RescheduleResult
beginReschedule(const std::vector<FlowSpec> &flows,
                const std::vector<double> &priorities,
                const Schedule &original,
                const std::vector<std::size_t> &dead_nodes)
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(original.feasible);
    RescheduleResult result;
    result.deadNodes = dead_nodes;
    std::sort(result.deadNodes.begin(), result.deadNodes.end());
    result.deadNodes.erase(std::unique(result.deadNodes.begin(),
                                       result.deadNodes.end()),
                           result.deadNodes.end());
    result.throughputBefore = original.totalThroughput;
    result.maxNodePowerBefore = maxPower(original.nodePower);
    return result;
}

/** Common end: the after-metrics, and no work left on a dead node. */
RescheduleResult
finishReschedule(RescheduleResult result, Schedule repaired)
{
    result.throughputAfter = repaired.totalThroughput;
    result.maxNodePowerAfter = maxPower(repaired.nodePower);
    result.schedule = std::move(repaired);
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        for ([[maybe_unused]] const FlowAllocation &alloc :
             result.schedule.flows)
            SCALO_ENSURES(alloc.electrodesPerNode[n] == 0.0);
    return result;
}

} // namespace

Scheduler::Scheduler(SystemConfig config)
    : systemConfig(std::move(config))
{
    SCALO_ASSERT(systemConfig.nodes >= 1, "need at least one node");
    SCALO_ASSERT(systemConfig.powerCap > 0.0_mW,
                 "power cap must be > 0");
    flatPlan = net::ClusterPlan::flat(systemConfig.nodes);
    effectivePlan = systemConfig.clusters.empty()
                        ? flatPlan
                        : systemConfig.clusters;
    effectivePlan.validate();
    SCALO_ASSERT(effectivePlan.nodeCount() == systemConfig.nodes,
                 "cluster plan must cover every node");
}

bool
Scheduler::decomposed() const
{
    return effectivePlan.clusterCount() > 1 &&
           systemConfig.nodes > kMonolithicNodeThreshold;
}

Schedule
Scheduler::schedule(const std::vector<FlowSpec> &flows,
                    const std::vector<double> &priorities) const
{
    return solve(flows, priorities,
                 std::vector<bool>(systemConfig.nodes, true),
                 decomposed() ? effectivePlan : flatPlan);
}

Schedule
Scheduler::scheduleMonolithic(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    return solve(flows, priorities,
                 std::vector<bool>(systemConfig.nodes, true), flatPlan);
}

Schedule
Scheduler::scheduleDecomposed(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    return solve(flows, priorities,
                 std::vector<bool>(systemConfig.nodes, true),
                 effectivePlan);
}

Schedule
Scheduler::solve(const std::vector<FlowSpec> &flows,
                 const std::vector<double> &priorities,
                 const std::vector<bool> &alive,
                 const net::ClusterPlan &plan) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    Schedule combined;

    // Static response-time feasibility: the PE chains are pipelined
    // at the window cadence (each PE sits in its own clock domain and
    // overlaps with its neighbours), so the binding serial component
    // is the network exchange round, which must fit the response-time
    // target.
    for (const FlowSpec &flow : flows) {
        if (flow.network &&
            flow.network->roundBudget >
                flow.responseTime + units::Millis{1e-9}) {
            combined.reason = "flow '" + flow.name +
                              "' cannot meet its response time";
            return combined;
        }
    }

    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation alloc;
        alloc.flow = flows[f].name;
        alloc.electrodesPerNode.assign(systemConfig.nodes, 0.0);
        combined.flows.push_back(std::move(alloc));
    }
    for (std::size_t c = 0; c < plan.clusterCount(); ++c) {
        const Schedule sub =
            scheduleClusterMasked(flows, priorities, alive, plan, c);
        if (!sub.feasible) {
            combined.flows.clear();
            combined.reason = sub.reason;
            return combined;
        }
        copyColumns(sub, combined, plan.members(c));
    }
    combined.feasible = true;
    stitchBackbone(flows, combined, alive, plan);
    finalizeSchedule(flows, priorities, combined, alive, plan);
    for ([[maybe_unused]] const units::Milliwatts p :
         combined.nodePower)
        SCALO_ENSURES(p.count() >= 0.0);
    return combined;
}

Schedule
Scheduler::scheduleClusterMasked(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const std::vector<bool> &alive, const net::ClusterPlan &plan,
    std::size_t cluster) const
{
    SCALO_EXPECTS(alive.size() == systemConfig.nodes);
    Schedule result;
    const std::size_t nodes = systemConfig.nodes;
    const std::vector<std::size_t> members = plan.members(cluster);
    const std::size_t first = plan.firstOf(cluster);
    // Networked flows split their round budget between the
    // intra-cluster rounds and the backbone.
    const double intra_share =
        plan.clusterCount() > 1 ? 1.0 - plan.backboneShare : 1.0;

    // Per-node leakage: each flow pays its own leakage, but the
    // intra-SCALO radio is one physical device, charged once.
    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);
    const units::Milliwatts power_budget =
        systemConfig.powerCap - leak_total;
    if (power_budget <= 0.0_mW) {
        result.reason = "leakage alone exceeds the power cap";
        return result;
    }

    ilp::Model model;
    const double e_cap = systemConfig.maxElectrodesPerNode > 0.0
                             ? systemConfig.maxElectrodesPerNode
                             : 100'000.0;

    // Variables exist only for member nodes: e_vars[f][i] belongs to
    // members[i]. This is what keeps the sub-problem size independent
    // of the fabric size.
    std::vector<std::vector<int>> e_vars(flows.size());
    std::vector<std::vector<int>> q_vars(flows.size());
    std::vector<ClusterRoles> roles;
    ilp::Expr objective;

    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        // Exact-compare flows only give credit (and allocate
        // electrodes) to the transmitting nodes; dead nodes process
        // nothing for any flow.
        roles.push_back(
            clusterRoles(systemConfig, flow, alive, plan, cluster));
        const std::vector<bool> &is_sender = roles[f].eligible;
        // Upper bound from power alone, used to place tangent cuts.
        const double e_power_max = std::min(
            e_cap, flow.electrodesAtPower(systemConfig.powerCap));
        for (std::size_t i = 0; i < members.size(); ++i) {
            const int e = model.addVariable(
                flow.name + ".e" + std::to_string(members[i]), 0.0,
                is_sender[i] ? e_cap : 0.0,
                systemConfig.integerElectrodes);
            e_vars[f].push_back(e);
            if (is_sender[i])
                objective.push_back({e, priorities[f]});
            if (flow.quadPerElectrode2.count() > 0.0) {
                const int q = model.addVariable(
                    flow.name + ".q" + std::to_string(members[i]),
                    0.0, ilp::kInf, false);
                q_vars[f].push_back(q);
                addQuadraticCuts(model, e, q,
                                 std::max(1.0, e_power_max) * 1.05);
            } else {
                q_vars[f].push_back(-1);
            }
        }
        // Centralised caps (e.g. the Kalman aggregator's NVM) are a
        // fabric-wide resource; each cluster receives its
        // proportional share.
        if (flow.centralElectrodeCap > 0.0) {
            ilp::Expr total;
            for (int e : e_vars[f])
                total.push_back({e, 1.0});
            model.addConstraint(
                std::move(total), ilp::Relation::LessEq,
                flow.centralElectrodeCap *
                    static_cast<double>(members.size()) /
                    static_cast<double>(nodes),
                flow.name + ".central-cap");
        }
    }

    // Per-node power and NVM write bandwidth. The ILP's coefficient
    // matrix is unitless, so rates and powers enter as their counts
    // (bytes/s and mW) - the one sanctioned escape hatch.
    const double nvm_write_bps =
        hw::nvmSpec().writeBandwidth().count() * 1e6;
    for (std::size_t i = 0; i < members.size(); ++i) {
        // A dead node draws no power and writes nothing; leaving its
        // receive-side constraints in place would wrongly bound the
        // survivors.
        if (!alive[members[i]])
            continue;
        ilp::Expr power;
        ilp::Expr nvm;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            if (receiveSideCompare(systemConfig, flow)) {
                // Hierarchical comparison: node i checks the windows
                // of its cluster peers (remote clusters arrive as
                // relay aggregates, charged to the relay).
                for (std::size_t j = 0; j < members.size(); ++j) {
                    if (j != i && roles[f].eligible[j] &&
                        flow.linPerElectrode.count() > 0.0) {
                        power.push_back(
                            {e_vars[f][j],
                             flow.linPerElectrode.count()});
                    }
                }
            } else if (flow.linPerElectrode.count() > 0.0) {
                power.push_back(
                    {e_vars[f][i], flow.linPerElectrode.count()});
            }
            if (flow.quadPerElectrode2.count() > 0.0)
                power.push_back(
                    {q_vars[f][i], flow.quadPerElectrode2.count()});
            if (flow.nvmWriteBytesPerElecPerSec > 0.0)
                nvm.push_back({e_vars[f][i],
                               flow.nvmWriteBytesPerElecPerSec});
        }
        if (!power.empty())
            model.addConstraint(
                std::move(power), ilp::Relation::LessEq,
                power_budget.count(),
                "power.node" + std::to_string(members[i]));
        if (!nvm.empty())
            model.addConstraint(
                std::move(nvm), ilp::Relation::LessEq, nvm_write_bps,
                "nvm.node" + std::to_string(members[i]));
    }

    // Network budgets: for each networked flow, the serialized TDMA
    // round of this cluster's senders must fit the intra share of its
    // budget. The wireless medium is shared across flows, so flows
    // running concurrently also share the window cadence; each flow's
    // budget already reflects its share of the schedule (Section 3.5
    // interleaves flows on the fixed TDMA schedule the ILP emits).
    if (systemConfig.wirelessNetwork) {
        const net::RadioSpec &radio = *systemConfig.radio;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            if (!flow.network || roles[f].tx.empty())
                continue;
            ilp::Expr round;
            units::Millis fixed{0.0};
            for (const std::size_t n : roles[f].tx) {
                if (flow.network->bytesPerElectrode > 0.0)
                    round.push_back(
                        {e_vars[f][n - first],
                         flow.network->bytesPerElectrode *
                             wireTimePerByte(radio).count()});
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
            }
            const units::Millis budget =
                intra_share * flow.network->roundBudget - fixed;
            if (budget < 0.0_ms) {
                // Even empty packets from every sender overrun the
                // round: this flow cannot run at this node count, so
                // it is allocated nothing (the rest of the schedule
                // stands).
                for (const std::size_t n : roles[f].tx)
                    model.addConstraint({{e_vars[f][n - first], 1.0}},
                                        ilp::Relation::LessEq, 0.0,
                                        flow.name + ".starved");
                continue;
            }
            if (!round.empty())
                model.addConstraint(std::move(round),
                                    ilp::Relation::LessEq,
                                    budget.count(),
                                    flow.name + ".network");
        }
    }

    model.setObjective(std::move(objective), /*maximize=*/true);
    const ilp::Solution solution = systemConfig.integerElectrodes
                                       ? ilp::solveIlp(model)
                                       : ilp::solveLp(model);
    if (!solution.ok()) {
        result.reason = plan.clusterCount() > 1
                            ? "cluster " + std::to_string(cluster) +
                                  " sub-ILP infeasible"
                            : "ILP infeasible";
        return result;
    }

    // Decode into full-width allocations (zeros outside the cluster);
    // the caller merges and finalizes.
    result.feasible = true;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation alloc;
        alloc.flow = flows[f].name;
        alloc.electrodesPerNode.assign(nodes, 0.0);
        for (std::size_t i = 0; i < members.size(); ++i)
            alloc.electrodesPerNode[members[i]] =
                solution.values[static_cast<std::size_t>(
                    e_vars[f][i])];
        result.flows.push_back(std::move(alloc));
    }
    return result;
}

void
Scheduler::stitchBackbone(const std::vector<FlowSpec> &flows,
                          Schedule &combined,
                          const std::vector<bool> &alive,
                          const net::ClusterPlan &plan) const
{
    if (!systemConfig.wirelessNetwork || plan.clusterCount() <= 1)
        return;
    const net::RadioSpec &radio = *systemConfig.radio;
    const std::size_t cluster_count = plan.clusterCount();
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        if (!flow.network)
            continue;
        FlowAllocation &alloc = combined.flows[f];
        const auto tx = senders(flow.network->pattern, alive);
        if (tx.empty())
            continue;
        // One relay transmission per cluster with senders: its fixed
        // packet cost plus the cluster's aggregated payload.
        std::vector<std::size_t> tx_per_cluster(cluster_count, 0);
        for (const std::size_t n : tx)
            ++tx_per_cluster[plan.clusterOf(n)];
        units::Millis fixed{0.0};
        double variable_ms = 0.0;
        for (std::size_t c = 0; c < cluster_count; ++c) {
            if (tx_per_cluster[c] == 0)
                continue;
            fixed += wireFixed(radio) +
                     static_cast<double>(tx_per_cluster[c]) *
                         flow.network->bytesPerNode *
                         wireTimePerByte(radio);
        }
        for (const std::size_t n : tx)
            variable_ms += alloc.electrodesPerNode[n] *
                           flow.network->bytesPerElectrode *
                           wireTimePerByte(radio).count();
        const double budget_ms =
            (plan.backboneShare * flow.network->roundBudget - fixed)
                .count();
        if (budget_ms <= 0.0) {
            // The relays' empty aggregates alone overrun the backbone
            // share: the flow cannot span clusters at this scale.
            for (double &e : alloc.electrodesPerNode)
                e = 0.0;
        } else if (variable_ms > budget_ms) {
            const double scale = budget_ms / variable_ms;
            for (const std::size_t n : tx)
                alloc.electrodesPerNode[n] *= scale;
        }
    }
}

void
Scheduler::finalizeSchedule(const std::vector<FlowSpec> &flows,
                            const std::vector<double> &priorities,
                            Schedule &combined,
                            const std::vector<bool> &alive,
                            const net::ClusterPlan &plan) const
{
    combined.totalThroughput = units::MegabitsPerSecond{0.0};
    combined.weightedThroughput = units::MegabitsPerSecond{0.0};
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation &alloc = combined.flows[f];
        alloc.totalElectrodes = 0.0;
        for (const double e : alloc.electrodesPerNode)
            alloc.totalElectrodes += e;
        alloc.throughput = electrodesToRate(alloc.totalElectrodes);
        combined.totalThroughput += alloc.throughput;
        combined.weightedThroughput +=
            priorities[f] * alloc.throughput;
    }
    combined.nodePower = allocationPowerClustered(
        systemConfig, flows, combined.flows, alive,
        totalLeak(systemConfig, flows), plan);
}

Schedule
Scheduler::greedyRepair(const std::vector<FlowSpec> &flows,
                        const std::vector<double> &priorities,
                        const Schedule &original,
                        const std::vector<std::size_t> &dead_nodes)
    const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(original.feasible);
    SCALO_EXPECTS(original.flows.size() == flows.size());
    const std::vector<bool> alive =
        aliveMask(systemConfig.nodes, dead_nodes);
    Schedule repaired = original;
    repaired.reason = "greedy repair after node failure";
    greedyRepairCluster(flows, repaired, alive, flatPlan, 0);
    finalizeSchedule(flows, priorities, repaired, alive, flatPlan);
    return repaired;
}

void
Scheduler::greedyRepairCluster(const std::vector<FlowSpec> &flows,
                               Schedule &repaired,
                               const std::vector<bool> &alive,
                               const net::ClusterPlan &plan,
                               std::size_t cluster) const
{
    const std::size_t first = plan.firstOf(cluster);
    const std::size_t size = plan.sizeOf(cluster);
    const double intra_share =
        plan.clusterCount() > 1 ? 1.0 - plan.backboneShare : 1.0;
    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);

    // Power headroom of the surviving members under the current
    // allocation (survivors keep their own work; the dead nodes'
    // share is what moves). Cluster-local exact-compare model,
    // matching allocationPowerClustered without the relay term, which
    // the greedy pass conservatively ignores.
    std::vector<double> cluster_total(flows.size(), 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t n = first; n < first + size; ++n)
            cluster_total[f] += repaired.flows[f].electrodesPerNode[n];
    std::vector<double> headroom(size, 0.0);
    for (std::size_t i = 0; i < size; ++i) {
        const std::size_t n = first + i;
        if (!alive[n])
            continue;
        units::Milliwatts used = leak_total;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            const double e =
                repaired.flows[f].electrodesPerNode[n];
            if (receiveSideCompare(systemConfig, flow)) {
                used += flow.linPerElectrode * (cluster_total[f] - e);
            } else {
                used += flow.linPerElectrode * e +
                        flow.quadPerElectrode2 * e * e;
            }
        }
        headroom[i] = (systemConfig.powerCap - used).count();
    }

    constexpr double kEps = 1e-9;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        FlowAllocation &alloc = repaired.flows[f];
        const bool exact = receiveSideCompare(systemConfig, flow);
        const ClusterRoles roles =
            clusterRoles(systemConfig, flow, alive, plan, cluster);
        const std::vector<bool> &eligible = roles.eligible;

        // Shed the dead nodes' electrodes (and any allocation a node
        // is no longer eligible for, e.g. a relocated aggregator).
        double shed = 0.0;
        for (std::size_t i = 0; i < size; ++i) {
            double &e = alloc.electrodesPerNode[first + i];
            if (!eligible[i] && e > 0.0) {
                shed += e;
                e = 0.0;
            }
        }

        // Redistribute onto survivors: each pass fills nodes up to
        // their power headroom (and the electrode ceiling); what no
        // node can absorb stays shed.
        const double lin = flow.linPerElectrode.count();
        const double quad = flow.quadPerElectrode2.count();
        for (int pass = 0; pass < 4 && shed > kEps; ++pass) {
            bool progressed = false;
            for (std::size_t i = 0; i < size && shed > kEps; ++i) {
                if (!eligible[i])
                    continue;
                const double e = alloc.electrodesPerNode[first + i];
                double room = shed;
                if (systemConfig.maxElectrodesPerNode > 0.0)
                    room = std::min(
                        room,
                        systemConfig.maxElectrodesPerNode - e);
                if (exact) {
                    // Receive-side power: every other live member
                    // pays lin per moved electrode.
                    for (std::size_t j = 0; j < size; ++j)
                        if (j != i && alive[first + j] && lin > 0.0)
                            room = std::min(room,
                                            headroom[j] / lin);
                } else {
                    room = std::min(
                        room, powerRoom(lin, quad, e, headroom[i]));
                }
                if (room <= kEps)
                    continue;
                alloc.electrodesPerNode[first + i] += room;
                shed -= room;
                progressed = true;
                if (exact) {
                    for (std::size_t j = 0; j < size; ++j)
                        if (j != i && alive[first + j])
                            headroom[j] -= lin * room;
                } else {
                    headroom[i] -=
                        lin * room +
                        quad * ((e + room) * (e + room) - e * e);
                }
            }
            if (!progressed)
                break;
        }

        // Network fit: the surviving senders' serialized round must
        // still meet the intra share of the budget; scale the flow
        // down uniformly when it does not (fewer senders also means
        // less fixed cost, so this rarely binds).
        if (systemConfig.wirelessNetwork && flow.network &&
            !roles.tx.empty()) {
            const net::RadioSpec &radio = *systemConfig.radio;
            units::Millis fixed{0.0};
            double variable_ms = 0.0;
            for (const std::size_t n : roles.tx) {
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
                variable_ms += alloc.electrodesPerNode[n] *
                               flow.network->bytesPerElectrode *
                               wireTimePerByte(radio).count();
            }
            const double budget_ms =
                (intra_share * flow.network->roundBudget - fixed)
                    .count();
            if (budget_ms <= 0.0) {
                for (std::size_t n = first; n < first + size; ++n)
                    alloc.electrodesPerNode[n] = 0.0;
            } else if (variable_ms > budget_ms) {
                const double scale = budget_ms / variable_ms;
                for (const std::size_t n : roles.tx)
                    alloc.electrodesPerNode[n] *= scale;
            }
        }
    }
}

bool
Scheduler::resolveClusters(const std::vector<FlowSpec> &flows,
                           const std::vector<double> &priorities,
                           const Schedule &original,
                           Schedule &repaired,
                           const std::vector<bool> &alive,
                           const std::vector<std::size_t> &clusters,
                           bool clamp) const
{
    bool via_ilp = true;
    for (const std::size_t c : clusters) {
        const Schedule sub = scheduleClusterMasked(
            flows, priorities, alive, effectivePlan, c);
        if (sub.feasible) {
            const std::vector<std::size_t> members =
                effectivePlan.members(c);
            copyColumns(sub, repaired, members);
            if (clamp)
                clampClusterToOriginal(original, repaired, members);
        } else {
            via_ilp = false;
            greedyRepairCluster(flows, repaired, alive, effectivePlan,
                                c);
        }
    }
    return via_ilp;
}

RescheduleResult
Scheduler::rescheduleCluster(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    std::size_t cluster) const
{
    SCALO_EXPECTS(cluster < effectivePlan.clusterCount());
    RescheduleResult result =
        beginReschedule(flows, priorities, original, dead_nodes);
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        SCALO_EXPECTS(effectivePlan.clusterOf(n) == cluster);
    result.resolvedClusters = {cluster};

    const std::vector<bool> alive =
        aliveMask(systemConfig.nodes, result.deadNodes);
    Schedule repaired = original;
    repaired.reason = "cluster " + std::to_string(cluster) +
                      " rescheduled after node failure";
    result.viaIlp =
        resolveClusters(flows, priorities, original, repaired, alive,
                        result.resolvedClusters, /*clamp=*/true);
    finalizeSchedule(flows, priorities, repaired, alive,
                     effectivePlan);
    return finishReschedule(std::move(result), std::move(repaired));
}

RescheduleResult
Scheduler::restitchBackbone(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    const std::vector<std::size_t> &unreachable_clusters) const
{
    RescheduleResult result =
        beginReschedule(flows, priorities, original, dead_nodes);

    // A heal with nothing dead and nothing unreachable restores the
    // boot schedule verbatim. Restitching it instead would not be a
    // no-op: a monolithic boot schedule never went through
    // stitchBackbone, so re-stitching would scale it down.
    if (result.deadNodes.empty() && unreachable_clusters.empty()) {
        result.viaIlp = true;
        return finishReschedule(std::move(result), original);
    }

    const std::vector<bool> alive =
        aliveMask(systemConfig.nodes, result.deadNodes);

    // Clusters owning dead nodes get fresh *unclamped* sub-solves,
    // reclaiming the capacity the mid-quantum clamp conservatively
    // gave up; untouched clusters keep their boot allocation.
    result.resolvedClusters =
        clustersOf(effectivePlan, result.deadNodes);
    Schedule repaired = original;
    repaired.reason = "backbone re-stitch";
    result.viaIlp =
        resolveClusters(flows, priorities, original, repaired, alive,
                        result.resolvedClusters, /*clamp=*/false);

    // The stitch sees only reachable senders: a partitioned cluster
    // keeps its intra-cluster allocation running but contributes no
    // backbone traffic until it heals.
    std::vector<bool> reachable = alive;
    for (const std::size_t c : unreachable_clusters) {
        SCALO_EXPECTS(c < effectivePlan.clusterCount());
        for (const std::size_t n : effectivePlan.members(c))
            reachable[n] = false;
    }
    stitchBackbone(flows, repaired, reachable, effectivePlan);
    finalizeSchedule(flows, priorities, repaired, alive,
                     effectivePlan);
    return finishReschedule(std::move(result), std::move(repaired));
}

RescheduleResult
Scheduler::reschedule(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities,
                      const Schedule &original,
                      const std::vector<std::size_t> &dead_nodes)
    const
{
    RescheduleResult result =
        beginReschedule(flows, priorities, original, dead_nodes);
    const std::vector<bool> alive =
        aliveMask(systemConfig.nodes, result.deadNodes);

    Schedule repaired;
    if (decomposed()) {
        // Incremental path: only clusters containing dead nodes are
        // re-solved; everything else keeps its allocation.
        result.resolvedClusters =
            clustersOf(effectivePlan, result.deadNodes);
        repaired = original;
        repaired.reason = "decomposed reschedule";
        result.viaIlp =
            resolveClusters(flows, priorities, original, repaired,
                            alive, result.resolvedClusters,
                            /*clamp=*/true);
        stitchBackbone(flows, repaired, alive, effectivePlan);
        finalizeSchedule(flows, priorities, repaired, alive,
                         effectivePlan);
    } else {
        for (std::size_t c = 0;
             c < effectivePlan.clusterCount(); ++c)
            result.resolvedClusters.push_back(c);
        if (std::find(alive.begin(), alive.end(), true) != alive.end())
            repaired = solve(flows, priorities, alive, flatPlan);
        if (repaired.feasible)
            result.viaIlp = true;
        else
            repaired = greedyRepair(flows, priorities, original,
                                    result.deadNodes);
    }
    return finishReschedule(std::move(result), std::move(repaired));
}

units::MegabitsPerSecond
Scheduler::maxAggregateThroughput(const FlowSpec &flow) const
{
    const Schedule s = schedule({flow}, {1.0});
    return s.feasible ? s.totalThroughput
                      : units::MegabitsPerSecond{0.0};
}

} // namespace scalo::sched
