#include "system/nested_system.h"

namespace svtsim {

MachineTopology
paperTopology(VirtMode mode)
{
    MachineTopology topo;
    topo.numaNodes = 2;
    topo.coresPerNode = 8;
    topo.threadsPerCore = (mode == VirtMode::HwSvt) ? 3 : 2;
    return topo;
}

NestedSystem::NestedSystem(VirtMode mode, StackConfig config,
                           std::uint64_t seed)
{
    config.mode = mode;
    validateStackConfig(config);
    machine_ = std::make_unique<Machine>(paperTopology(mode),
                                         CostModel{}, seed);
    stack_ = std::make_unique<VirtStack>(*machine_, config);
}

NestedSystem::NestedSystem(const MachineTopology &topo,
                           StackConfig config, std::uint64_t seed)
{
    validateStackConfig(config);
    machine_ = std::make_unique<Machine>(topo, CostModel{}, seed);
    stack_ = std::make_unique<VirtStack>(*machine_, config);
}

} // namespace svtsim
