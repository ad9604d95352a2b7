/**
 * @file
 * The ILP-based system scheduler (Section 3.5). Each application task
 * is a flow; the scheduler maximizes the priority-weighted number of
 * electrode signals processed across flows and nodes, subject to
 *
 *  - a per-node power cap (flow leakage + linear and convex-quadratic
 *    dynamic terms, the latter handled with exact-enough tangent
 *    cuts),
 *  - the serialized TDMA network (per-flow exchange-round budgets,
 *    with per-packet overhead),
 *  - per-node NVM write bandwidth,
 *  - centralised resource caps (e.g. the Kalman aggregator's NVM), and
 *  - response-time feasibility of the PE chains.
 *
 * The deterministic latency/power of every component (Section 3.2) is
 * what makes this optimal static scheduling valid.
 */

#pragma once

#include <string>
#include <vector>

#include "scalo/net/cluster.hpp"
#include "scalo/net/radio.hpp"
#include "scalo/sched/workloads.hpp"

namespace scalo::sched {

/** System-level configuration the scheduler maps onto. */
struct SystemConfig
{
    std::size_t nodes = 11;
    units::Milliwatts powerCap = constants::kPowerCap;
    const net::RadioSpec *radio = &net::defaultRadio();
    /** False for wired centralized baselines: no radio power/limits. */
    bool wirelessNetwork = true;
    /** Enforce integral electrode counts (slower; default relaxed). */
    bool integerElectrodes = false;
    /**
     * Per-node electrode ceiling; 0 lifts it (the paper's "maximum
     * aggregate throughput" methodology adds electrodes/ADCs until
     * power or response time binds).
     */
    double maxElectrodesPerNode = 0.0;
    /**
     * Hierarchical fabric partition. Empty means flat (one cluster
     * spanning every node, the legacy medium).
     */
    net::ClusterPlan clusters;
};

/**
 * At or below this node count the scheduler keeps the dense
 * monolithic solve even when a multi-cluster plan is configured, so
 * small-N schedules are bit-identical to the flat ones.
 */
inline constexpr std::size_t kMonolithicNodeThreshold = 48;

/**
 * Indices of live nodes that transmit for @p pattern, ascending. With
 * every node alive this reproduces the canonical roles (node 0
 * broadcasts / aggregates); after failures the first surviving node
 * inherits the broadcaster/aggregator role.
 */
std::vector<std::size_t> senders(net::Pattern pattern,
                                 const std::vector<bool> &alive);

/** Electrode allocation of one flow across nodes. */
struct FlowAllocation
{
    std::string flow;
    std::vector<double> electrodesPerNode;
    double totalElectrodes = 0.0;
    units::MegabitsPerSecond throughput{0.0};
};

/** A complete schedule for a flow set. */
struct Schedule
{
    bool feasible = false;
    /** Diagnostic when infeasible. */
    std::string reason;
    std::vector<FlowAllocation> flows;
    std::vector<units::Milliwatts> nodePower;
    units::MegabitsPerSecond totalThroughput{0.0};
    units::MegabitsPerSecond weightedThroughput{0.0};
};

/** Outcome of rescheduling around dead nodes (degraded operation). */
struct RescheduleResult
{
    /** The repaired schedule; dead nodes carry zero work and power. */
    Schedule schedule;
    /** True when the ILP re-solve produced it; false = greedy repair. */
    bool viaIlp = false;
    std::vector<std::size_t> deadNodes;
    /**
     * Clusters whose sub-problems were re-solved. The decomposed path
     * only touches clusters containing dead nodes; the monolithic
     * path re-solves the whole fabric and lists every cluster.
     */
    std::vector<std::size_t> resolvedClusters;
    /** Degradation deltas (before = the original schedule). */
    units::MegabitsPerSecond throughputBefore{0.0};
    units::MegabitsPerSecond throughputAfter{0.0};
    units::Milliwatts maxNodePowerBefore{0.0};
    units::Milliwatts maxNodePowerAfter{0.0};
};

/** The optimal mapper. */
class Scheduler
{
  public:
    explicit Scheduler(SystemConfig config);

    /**
     * Solve for the optimal electrode allocation of @p flows with the
     * given priorities (one weight per flow).
     */
    Schedule schedule(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities) const;

    /**
     * Remap @p original's work off @p dead_nodes onto the survivors:
     * re-solves the ILP restricted to live nodes, and when that is
     * infeasible falls back to greedyRepair(). Either way the
     * returned schedule assigns zero electrodes and zero power to
     * every dead node, and the result reports the degraded
     * throughput/power deltas against the original.
     */
    RescheduleResult
    reschedule(const std::vector<FlowSpec> &flows,
               const std::vector<double> &priorities,
               const Schedule &original,
               const std::vector<std::size_t> &dead_nodes) const;

    /**
     * The non-ILP repair path: move each flow's dead-node electrodes
     * onto surviving nodes in proportion to their remaining power
     * headroom, clipped by the per-node electrode ceiling. Always
     * returns a schedule (possibly with work shed when nothing fits),
     * so degradation never depends on solver feasibility. It is the
     * per-cluster greedy pass run on the whole fabric as one cluster.
     */
    Schedule greedyRepair(const std::vector<FlowSpec> &flows,
                          const std::vector<double> &priorities,
                          const Schedule &original,
                          const std::vector<std::size_t> &dead_nodes)
        const;

    /** Single-flow maximum aggregate throughput. */
    units::MegabitsPerSecond
    maxAggregateThroughput(const FlowSpec &flow) const;

    const SystemConfig &config() const { return systemConfig; }

    /** The effective partition (flat when none was configured). */
    const net::ClusterPlan &plan() const { return effectivePlan; }

    /**
     * True when schedule()/reschedule() use the decomposed per-cluster
     * formulation: a multi-cluster plan above
     * kMonolithicNodeThreshold nodes.
     */
    bool decomposed() const;

    /**
     * Force the dense whole-fabric solve regardless of the cluster
     * plan (the small-N reference, and the baseline the scaling bench
     * times against): the per-cluster solve on a one-cluster plan.
     */
    Schedule
    scheduleMonolithic(const std::vector<FlowSpec> &flows,
                       const std::vector<double> &priorities) const;

    /**
     * Force the decomposed solve: one compact sub-ILP per cluster
     * (intra-cluster share of each flow's round budget), then greedy
     * stitching of the inter-cluster relay traffic into the backbone
     * share, scaling flows down when the backbone would overrun.
     * On a single-cluster plan this is the monolithic solve.
     */
    Schedule
    scheduleDecomposed(const std::vector<FlowSpec> &flows,
                       const std::vector<double> &priorities) const;

    /**
     * Re-solve exactly one cluster around @p dead_nodes (all of which
     * must belong to @p cluster); every other cluster's columns are
     * copied from @p original untouched. This is the entry the
     * simulator's per-cluster runtimes use mid-quantum: it reads
     * shared state immutably and never scales other clusters, so
     * concurrent calls for distinct clusters are safe. The re-solved
     * cluster is clamped to its pre-death totals, keeping relay
     * payloads monotonically non-increasing until the runtime's next
     * barrier, where restitchBackbone() re-stitches the backbone
     * fabric-wide and reclaims the capacity the clamp gave up.
     */
    RescheduleResult
    rescheduleCluster(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities,
                      const Schedule &original,
                      const std::vector<std::size_t> &dead_nodes,
                      std::size_t cluster) const;

    /**
     * Fabric-wide backbone re-stitch, run at a runtime barrier after
     * relay failover, node death, or a partition transition. Starting
     * from @p original (the boot schedule, so repeated re-stitches
     * never ratchet allocations down), every cluster owning one of
     * @p dead_nodes is re-solved unclamped via the incremental
     * per-cluster sub-ILP, then the inter-cluster backbone is
     * re-stitched against a reachability mask that excludes
     * @p unreachable_clusters' members (their intra-cluster TDMA
     * keeps its allocation; only their backbone contribution is
     * dropped). With no dead nodes and no unreachable clusters the
     * result is the original schedule — a heal restores full
     * capacity exactly.
     */
    RescheduleResult restitchBackbone(
        const std::vector<FlowSpec> &flows,
        const std::vector<double> &priorities,
        const Schedule &original,
        const std::vector<std::size_t> &dead_nodes,
        const std::vector<std::size_t> &unreachable_clusters = {})
        const;

  private:
    /**
     * Solve every cluster of @p plan over the @p alive nodes, merge,
     * stitch the backbone (multi-cluster plans only) and finalize.
     * With the flat plan this is the monolithic solve.
     */
    Schedule solve(const std::vector<FlowSpec> &flows,
                   const std::vector<double> &priorities,
                   const std::vector<bool> &alive,
                   const net::ClusterPlan &plan) const;

    /**
     * Compact sub-ILP over @p cluster's members: variables and
     * constraints only for member nodes, the flow round budgets
     * scaled to the intra-cluster share of @p plan. Returns only the
     * per-node electrodes, full width with zeros outside the cluster
     * (the caller finalizes the merged schedule). Safe to call
     * concurrently: it reads shared state only.
     */
    Schedule
    scheduleClusterMasked(const std::vector<FlowSpec> &flows,
                          const std::vector<double> &priorities,
                          const std::vector<bool> &alive,
                          const net::ClusterPlan &plan,
                          std::size_t cluster) const;

    /**
     * The greedy redistribution pass over @p cluster of @p plan: shed
     * the work of dead or no-longer-eligible members onto the
     * survivors' power headroom, then fit the intra-cluster round.
     */
    void
    greedyRepairCluster(const std::vector<FlowSpec> &flows,
                        Schedule &repaired,
                        const std::vector<bool> &alive,
                        const net::ClusterPlan &plan,
                        std::size_t cluster) const;

    /**
     * Re-solve @p clusters of @p repaired around the dead nodes: each
     * by its sub-ILP (clamped to @p original's per-cluster totals
     * when @p clamp), or by the greedy pass when that is infeasible.
     * True when every cluster came from the ILP.
     */
    bool resolveClusters(const std::vector<FlowSpec> &flows,
                         const std::vector<double> &priorities,
                         const Schedule &original, Schedule &repaired,
                         const std::vector<bool> &alive,
                         const std::vector<std::size_t> &clusters,
                         bool clamp) const;

    /**
     * Greedy backbone stitching: fit each networked flow's per-cluster
     * relay aggregates into the backbone share of its round budget,
     * uniformly scaling sender electrodes down (or starving the flow)
     * when they do not fit.
     */
    void stitchBackbone(const std::vector<FlowSpec> &flows,
                        Schedule &combined,
                        const std::vector<bool> &alive,
                        const net::ClusterPlan &plan) const;

    /** Recompute totals/throughput/nodePower after a merge or stitch. */
    void finalizeSchedule(const std::vector<FlowSpec> &flows,
                          const std::vector<double> &priorities,
                          Schedule &combined,
                          const std::vector<bool> &alive,
                          const net::ClusterPlan &plan) const;

    SystemConfig systemConfig;
    /** One cluster spanning every node: the monolithic formulation. */
    net::ClusterPlan flatPlan;
    net::ClusterPlan effectivePlan;
};

} // namespace scalo::sched
