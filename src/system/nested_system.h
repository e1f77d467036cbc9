/**
 * @file
 * Top-level assembly: the Table 4 machine plus a VirtStack in a given
 * mode, with the paper's default devices wired (virtio-net over a
 * 10 GbE link, virtio-blk over a ramdisk).
 */

#ifndef SVTSIM_SYSTEM_NESTED_SYSTEM_H
#define SVTSIM_SYSTEM_NESTED_SYSTEM_H

#include <memory>

#include "arch/machine.h"
#include "hv/stack_config.h"
#include "hv/virt_stack.h"

namespace svtsim {

/** Machine topology of the evaluation testbed (Table 4):
 *  2x Intel E5-2630v3 (8 cores, 2-SMT each, 2.4 GHz).
 *  HW SVt studies assume one extra hardware context per core. */
MachineTopology paperTopology(VirtMode mode);

/**
 * One assembled experiment platform: machine + virtualization stack.
 */
class NestedSystem
{
  public:
    /** Paper topology for @p mode; @p config's knobs are validated
     *  (see validateStackConfig) and its mode overridden by @p mode. */
    explicit NestedSystem(VirtMode mode, StackConfig config = {},
                          std::uint64_t seed = 1);

    /** Custom topology; the mode comes from @p config.mode (used by
     *  the context-capacity ablation and topology sweeps). */
    NestedSystem(const MachineTopology &topo, StackConfig config,
                 std::uint64_t seed = 1);

    Machine &machine() { return *machine_; }
    VirtStack &stack() { return *stack_; }
    GuestApi &api() { return stack_->api(); }

  private:
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<VirtStack> stack_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_NESTED_SYSTEM_H
