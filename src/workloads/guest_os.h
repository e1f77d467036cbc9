/**
 * @file
 * Small guest-kernel behaviours the workloads share.
 */

#ifndef SVTSIM_WORKLOADS_GUEST_OS_H
#define SVTSIM_WORKLOADS_GUEST_OS_H

#include <functional>

#include "hv/guest_api.h"

namespace svtsim {

/** Guest-kernel idioms. */
class GuestOs
{
  public:
    /**
     * Tickless idle loop: arm the TSC-deadline timer, halt until
     * @p pred holds, cancel/re-arm on wakeups. In a nested guest both
     * MSR writes are reflected exits (the MSR_WRITE profile entries
     * of Section 6.2), exactly like a tickless Linux kernel's
     * cpuidle + hrtimer reprogramming behaves. The idle watchdog
     * fires every 1 ms: the kernel never sleeps unbounded.
     */
    static void idleWait(GuestApi &api,
                         const std::function<bool()> &pred);
};

} // namespace svtsim

#endif // SVTSIM_WORKLOADS_GUEST_OS_H
