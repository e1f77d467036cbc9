/**
 * @file
 * Per-hardware-context local interrupt controller (APIC-like).
 */

#ifndef SVTSIM_ARCH_LAPIC_H
#define SVTSIM_ARCH_LAPIC_H

#include <cstdint>
#include <vector>

#include "arch/cost_model.h"
#include "sim/event_queue.h"
#include "stats/metrics.h"

namespace svtsim {

/**
 * Local APIC model: pending-vector bitmap with x86 priority (higher
 * vector wins), IPIs with delivery latency, and a TSC-deadline timer.
 *
 * SVt's interrupt-redirection rule (Section 3.1: treat all SVt-enabled
 * contexts as one target CPU by steering external interrupts to the
 * context where L0 executes) is modeled by the @ref redirect pointer.
 */
class Lapic
{
  public:
    /**
     * @param eq Shared event queue (IPIs and timers are events).
     * @param costs Cost model for delivery latencies.
     * @param id Global identifier (for diagnostics).
     * @param metrics Optional registry; all lapics on a machine share
     *        the aggregate irq.raised / irq.ipi counters.
     */
    Lapic(EventQueue &eq, const CostModel &costs, int id,
          MetricsRegistry *metrics = nullptr);

    ~Lapic();

    Lapic(const Lapic &) = delete;
    Lapic &operator=(const Lapic &) = delete;

    int id() const { return id_; }

    // -- Pending interrupt state --------------------------------------
    /** Mark @p vector pending on this APIC (no redirection). */
    void raise(std::uint8_t vector);

    /**
     * Deliver an external (device) interrupt. Follows the SVt
     * redirection chain so an SVt-enabled core's device interrupts
     * land on the hypervisor context.
     */
    void assertExternal(std::uint8_t vector);

    bool hasPending() const { return any(pending_); }

    /** Highest-priority pending vector, or -1 if none. */
    int highestPending() const;

    /** Pop and return the highest-priority pending vector (-1 if
     *  none). The caller models delivery cost. */
    int ack();

    /** Whether a specific vector is pending. */
    bool isPending(std::uint8_t vector) const;

    // -- Posted interrupts (exit-elision ladder rung 1) ----------------
    /**
     * Set @p vector in the posted-interrupt request bitmap instead of
     * the IRR. Returns true when a notification is needed (the bit is
     * new and no notification is outstanding); the caller then models
     * the notification cost and eventually calls syncPosted(). A false
     * return means an earlier notification is still pending and will
     * pick this vector up too (the ON-bit semantics of the hardware
     * descriptor).
     */
    bool postInterrupt(std::uint8_t vector);

    /**
     * Merge the posted bitmap into the pending IRR and clear the
     * outstanding-notification flag (the microcode's PIR scan at
     * notification or VM entry). Returns the number of vectors moved.
     */
    int syncPosted();

    /** Whether any posted vectors await a sync. */
    bool hasPosted() const { return any(pir_); }

    // -- Inter-processor interrupts ------------------------------------
    /**
     * Send an IPI to @p dst; it becomes pending there after the
     * modeled IPI latency. The SVt redirection chain is resolved at
     * delivery time (matching assertExternal), so a redirect installed
     * while the IPI is in flight still takes effect. A fault plan can
     * drop or delay the delivery.
     */
    void sendIpi(Lapic &dst, std::uint8_t vector);

    // -- TSC-deadline timer ---------------------------------------------
    /**
     * Arm the TSC-deadline timer to raise @p vector at absolute time
     * @p when. Re-arming replaces any armed deadline; @p when in the
     * past fires immediately (matches the architecture: deadline
     * already reached).
     */
    void armTscDeadline(Ticks when, std::uint8_t vector);

    /** Disarm the deadline timer (wrmsr of zero). */
    void cancelTscDeadline();

    bool tscDeadlineArmed() const { return timerEvent_ != invalidEventId; }

    // -- SVt external-interrupt redirection ------------------------------
    /** When set, assertExternal() forwards to this APIC instead. */
    Lapic *redirect = nullptr;

  private:
    /** A 256-vector bitmap, vector v at bit v % 64 of word v / 64. */
    using VectorSet = std::uint64_t[4];

    static bool
    any(const VectorSet &set)
    {
        return (set[0] | set[1] | set[2] | set[3]) != 0;
    }

    /** Follow the redirect chain to the delivery target (8-hop cycle
     *  guard, shared by assertExternal and in-flight IPI delivery). */
    Lapic *resolveRedirect();

    /** Drop handles of already-fired inbound IPI events. */
    void pruneInflight();

    EventQueue &eq_;
    const CostModel &costs_;
    int id_;
    VectorSet pending_ = {};
    /** Posted-interrupt requests awaiting a syncPosted(). */
    VectorSet pir_ = {};
    /** The descriptor's outstanding-notification (ON) bit: set while a
     *  notification is in flight, so repeated posts coalesce. */
    bool notifOutstanding_ = false;
    EventId timerEvent_ = invalidEventId;
    /** In-flight IPI events targeting this APIC; the destructor
     *  deschedules them so their closures cannot outlive us. */
    std::vector<EventId> inflightIpis_;
    Counter raisedMetric_;
    Counter ipiMetric_;
    Counter postedMetric_;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_LAPIC_H
