#include "scalo/sched/netplan.hpp"

#include <cmath>
#include <sstream>

#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::sched {

bool
NetworkPlan::collisionFree() const
{
    for (std::size_t i = 0; i + 1 < slots.size(); ++i)
        if (slots[i].end >
            slots[i + 1].start + units::Millis{1e-12})
            return false;
    return true;
}

NetworkPlan
buildNetworkPlan(const std::vector<FlowSpec> &flows,
                 const Schedule &schedule,
                 const net::RadioSpec &radio)
{
    SCALO_ASSERT(schedule.feasible, "cannot plan an infeasible "
                                    "schedule");
    SCALO_ASSERT(flows.size() == schedule.flows.size(),
                 "flow/allocation mismatch");

    const std::size_t nodes =
        schedule.flows.empty()
            ? 0
            : schedule.flows.front().electrodesPerNode.size();
    const net::TdmaSchedule tdma(radio, std::max<std::size_t>(1,
                                                              nodes));

    NetworkPlan plan;
    units::Millis cursor{0.0};
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        if (!flow.network)
            continue;
        const auto &alloc = schedule.flows[f];

        for (const std::size_t sender :
             senders(flow.network->pattern,
                     std::vector<bool>(nodes, true))) {
            const double electrodes =
                alloc.electrodesPerNode[sender];
            const auto payload = static_cast<std::size_t>(
                std::ceil(flow.network->bytesPerElectrode *
                              electrodes +
                          flow.network->bytesPerNode));
            if (payload == 0)
                continue;
            TdmaSlot slot;
            slot.sender = static_cast<NodeId>(sender);
            slot.flow = flow.name;
            slot.payloadBytes = payload;
            slot.start = cursor;
            slot.end = cursor + tdma.slotTime(payload);
            cursor = slot.end;
            plan.slots.push_back(std::move(slot));
        }
    }
    plan.round = cursor;
    SCALO_ENSURES(plan.collisionFree());
    return plan;
}

std::string
renderPlan(const NetworkPlan &plan)
{
    std::ostringstream oss;
    oss << "TDMA round: " << plan.round.count() << " ms, "
        << plan.slots.size() << " slots\n";
    for (const TdmaSlot &slot : plan.slots) {
        oss << "  [" << slot.start.count() << " - "
            << slot.end.count() << " ms] node " << slot.sender
            << " sends " << slot.payloadBytes << " B of '"
            << slot.flow << "'\n";
    }
    return oss.str();
}

} // namespace scalo::sched
