#include "workloads/guest_os.h"

#include "arch/regs.h"

namespace svtsim {

void
GuestOs::idleWait(GuestApi &api, const std::function<bool()> &pred)
{
    while (!pred()) {
        api.wrmsr(msr::ia32TscDeadline,
                  static_cast<std::uint64_t>(api.now() + msec(1)));
        // The wakeup may already have been delivered while arming the
        // watchdog (the arm itself traps, and interrupts are accepted
        // at instruction boundaries): the idle governor re-checks the
        // wake condition before actually halting.
        if (!pred())
            api.halt();
        // Wakeup path: the kernel cancels the idle watchdog before
        // running the woken task.
        api.wrmsr(msr::ia32TscDeadline, 0);
    }
}

} // namespace svtsim
