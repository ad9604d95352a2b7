#include "scalo/sim/faults/fault_plan.hpp"

#include <stdexcept>
#include <string>

namespace scalo::sim {

namespace {

/** Reject entry @p index of the plan's @p field list: @p problem. */
void
require(bool ok, const char *field, std::size_t index,
        const char *problem)
{
    if (!ok)
        throw std::invalid_argument("FaultPlan::" + std::string(field) +
                                    "[" + std::to_string(index) +
                                    "]: " + problem);
}

bool
unitInterval(double p)
{
    return p >= 0.0 && p <= 1.0;
}

} // namespace

void
FaultPlan::validate(std::size_t nodes, std::size_t clusters) const
{
    for (std::size_t i = 0; i < crashes.size(); ++i) {
        const NodeCrashFault &crash = crashes[i];
        require(crash.node < nodes, "crashes", i, "node out of range");
        require(crash.at.count() >= 0.0, "crashes", i, "at < 0");
        require(!crash.reboots() || crash.rebootAt > crash.at,
                "crashes", i, "rebootAt not after at");
    }
    for (std::size_t i = 0; i < dropouts.size(); ++i) {
        const RadioDropoutFault &dropout = dropouts[i];
        require(dropout.from.count() >= 0.0, "dropouts", i,
                "from < 0");
        require(dropout.to > dropout.from, "dropouts", i,
                "to not after from");
    }
    for (std::size_t i = 0; i < berSpikes.size(); ++i) {
        const BerSpikeFault &spike = berSpikes[i];
        require(spike.from.count() >= 0.0, "berSpikes", i, "from < 0");
        require(spike.to > spike.from, "berSpikes", i,
                "to not after from");
        require(unitInterval(spike.ber), "berSpikes", i,
                "ber outside [0, 1]");
    }
    for (std::size_t i = 0; i < nvmFailures.size(); ++i) {
        const NvmFailureFault &failure = nvmFailures[i];
        require(failure.node < nodes, "nvmFailures", i,
                "node out of range");
        require(unitInterval(failure.probability), "nvmFailures", i,
                "probability outside [0, 1]");
    }
    for (std::size_t i = 0; i < throttles.size(); ++i) {
        const ThermalThrottleFault &throttle = throttles[i];
        require(throttle.node < nodes, "throttles", i,
                "node out of range");
        require(throttle.from.count() >= 0.0, "throttles", i,
                "from < 0");
        require(throttle.to > throttle.from, "throttles", i,
                "to not after from");
        require(throttle.slowdown >= 1.0, "throttles", i,
                "slowdown < 1");
    }
    for (std::size_t i = 0; i < relayCrashes.size(); ++i) {
        const RelayCrashFault &crash = relayCrashes[i];
        require(clusters == 0 || crash.cluster < clusters,
                "relayCrashes", i, "cluster out of range");
        require(crash.at.count() >= 0.0, "relayCrashes", i, "at < 0");
        require(!crash.reboots() || crash.rebootAt > crash.at,
                "relayCrashes", i, "rebootAt not after at");
    }
    for (std::size_t i = 0; i < partitions.size(); ++i) {
        const ClusterPartitionFault &partition = partitions[i];
        require(clusters == 0 || partition.cluster < clusters,
                "partitions", i, "cluster out of range");
        require(partition.from.count() >= 0.0, "partitions", i,
                "from < 0");
        require(partition.to > partition.from, "partitions", i,
                "to not after from");
    }
    for (std::size_t i = 0; i < backboneBerSpikes.size(); ++i) {
        const BackboneBerSpikeFault &spike = backboneBerSpikes[i];
        require(spike.from.count() >= 0.0, "backboneBerSpikes", i,
                "from < 0");
        require(spike.to > spike.from, "backboneBerSpikes", i,
                "to not after from");
        require(unitInterval(spike.ber), "backboneBerSpikes", i,
                "ber outside [0, 1]");
    }
}

} // namespace scalo::sim
