/**
 * @file
 * Configuration of the virtualization stack assembled by VirtStack.
 */

#ifndef SVTSIM_HV_STACK_CONFIG_H
#define SVTSIM_HV_STACK_CONFIG_H

#include "hv/channel.h"

namespace svtsim {

/** How the workload is virtualized (the Figure 6 bar set). */
enum class VirtMode
{
    /** Bare metal (the paper's "L0" bar). */
    Native,
    /** One virtualization level (the "L1" bar). */
    Single,
    /** Nested baseline: L2 on L1 on L0 (the "L2" bar). */
    Nested,
    /** Nested with the software-only SVt prototype (Section 5.2). */
    SwSvt,
    /** Nested with SVt hardware (Sections 3-4), fully simulated. */
    HwSvt,
};

const char *virtModeName(VirtMode mode);

/** Whether @p mode runs SVt (software or hardware). */
constexpr bool
isSvtMode(VirtMode mode)
{
    return mode == VirtMode::SwSvt || mode == VirtMode::HwSvt;
}

/** Whether @p mode runs an L2 on an L1 on L0. */
constexpr bool
isNestedMode(VirtMode mode)
{
    return mode == VirtMode::Nested || isSvtMode(mode);
}

/**
 * Heartbeat watchdog on the SW SVt L0<->SVt-thread handshake
 * (StackConfig::svtWatchdog).
 *
 * The prototype's protocol is one missed wakeup away from a hang
 * (Section 5.3); with the watchdog enabled, a handshake step that
 * misses its deadline is retried with linear backoff (re-ringing the
 * doorbell) and, when retries are exhausted, the stack degrades from
 * SW SVt to the conventional nested trap path. After the quiet period
 * of degraded operation it re-promotes to SW SVt. Degradations and
 * re-promotions surface as the `svt.fallback` / `svt.repromote` PMU
 * counters and trace instants.
 */
namespace svt_watchdog {

/** Heartbeat deadline for one handshake step. */
constexpr Ticks timeout = usec(10);
/** Doorbell retries before degrading. */
constexpr int maxRetries = 2;
/** Extra wait added per successive retry (linear backoff). */
constexpr Ticks backoff = usec(5);
/** Degraded time before re-promoting to SW SVt. */
constexpr Ticks quietPeriod = usec(200);

} // namespace svt_watchdog

/** Tuning knobs of the stack (defaults reproduce the paper's setup). */
struct StackConfig
{
    VirtMode mode = VirtMode::Nested;

    /** Intel-style hardware VMCS shadowing available and used by L0
     *  for L1's VMCS accesses (on for the paper's Haswell testbed;
     *  ablation bench turns it off). */
    bool hwVmcsShadowing = true;

    /** SW SVt channel configuration (Section 6.1 explores these). */
    ChannelModel channel{};

    /** Apply the Section 5.3 SVT_BLOCKED deadlock fix. Turning this
     *  off demonstrates the interrupt deadlock in tests. */
    bool svtBlockedFix = true;

    /** SW SVt heartbeat watchdog with graceful degradation (see
     *  svt_watchdog; off by default: the paper's prototype assumes
     *  the happy path). */
    bool svtWatchdog = false;

    /**
     * HW SVt extension sketched in Section 3.1: "SVt could
     * selectively bypass some virtualization levels when triggering a
     * VM trap to bring performance even closer to systems with full
     * hardware support for nested virtualization". When enabled, L2
     * exits whose reason L0 whitelisted (cpuid, rdmsr, vmcall, pause
     * — reasons that touch no L0-owned state) retarget fetch straight
     * to the guest hypervisor's context; L0 is only involved when the
     * L1 handler itself traps.
     */
    bool svtDirectReflect = false;

    /**
     * First rung of the exit-elision ladder (ROADMAP item 3): posted
     * interrupts + x2APIC virtualization for L2. Completion interrupts
     * raised while L2 runs are written into the vCPU's posted-interrupt
     * descriptor and recognized by the (simulated) microcode without a
     * nested exit, and the guest's x2APIC EOI write is virtualized
     * instead of trapping to L0. Only meaningful when there is an L2:
     * requires a nested mode.
     */
    bool postedInterrupts = false;

    /**
     * Second rung: virtio-net/blk queue pairs. Each queue gets its own
     * doorbell page, Virtqueue array and vhost submission pipeline;
     * requests are sharded round-robin by request id. 1 reproduces the
     * paper's single-queue devices; >1 requires a nested mode.
     */
    int virtioQueues = 1;

    /**
     * Per-queue completion-interrupt coalescing: the vhost backend
     * fires the guest IRQ when this many completions are pending...
     */
    int virtioCoalesceCount = 1;

    /**
     * ...or when this much time has passed since the first undelivered
     * completion, whichever comes first. The timer is an ordinary event
     * on the machine's queue, so coalescing stays deterministic. 0
     * disables the timer; virtioCoalesceCount > 1 then requires a
     * timeout so a tail batch smaller than the count is never stranded.
     */
    Ticks virtioCoalesceTimeout = 0;
};

/**
 * Reject inconsistent knob combinations with an actionable FatalError
 * instead of silently ignoring knobs that have no effect in the
 * configured mode. Called by VirtStack and NestedSystem on
 * construction; exposed so config producers (sweep scenario builders,
 * future config-file loaders) can validate early.
 *
 * Rules:
 *  - svtDirectReflect models the Section 3.1 HW SVt bypass: HwSvt only.
 *  - channel tuning configures the SW SVt command rings: SwSvt only.
 *  - svtWatchdog guards the SW SVt handshake: SwSvt only.
 *  - svtBlockedFix=false disables the Section 5.3 deadlock fix in the
 *    SVt trap path: requires an SVt mode (SwSvt or HwSvt).
 *  - hwVmcsShadowing=false only changes behaviour when a nested L1
 *    issues vmread/vmwrite: requires a nested mode.
 *  - postedInterrupts elides *nested* exits on the L2 interrupt path:
 *    requires a nested mode.
 *  - virtioQueues must be in [1, 8]; >1 requires a nested mode (the
 *    sweep compares queue scaling across the nested stacks).
 *  - virtioCoalesceCount >= 1, virtioCoalesceTimeout >= 0, and a
 *    count > 1 requires a timeout > 0 (otherwise a tail batch smaller
 *    than the count would never be delivered); non-default coalescing
 *    requires a nested mode.
 */
void validateStackConfig(const StackConfig &config);

} // namespace svtsim

#endif // SVTSIM_HV_STACK_CONFIG_H
